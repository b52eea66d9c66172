"""Naive per-sample oracles for the accelerator's batched kernels.

The library runs each operation through one batched path: inference, the
gradient vector and the outer product all take a batch of B samples, and a
single sample is B = 1.  These references restate the per-sample hardware
schedule in plain loops, so tests can check the batched kernels against
code that shares none of their batching:

- one symbol at a time through a bank zero-padded to its full width;
- the outer product as a real program-then-stream of a column-constant
  bank (``bank.program`` + ``matmat(diag(delta))``);
- training one sample at a time, restoring the forward weights the
  previous sample's backward pass overwrote;
- the photodetector's branch-split detection (:func:`detect_normalized`)
  and the batched outer product as a (B, y, d) stack of per-sample noisy
  detections summed over B (:func:`summed_outer_product`), the forms the
  lean detector and the one-GEMM outer product replaced.

Every function charges the accelerator's event counters and the banks'
stats the way the hardware would, so counters can be compared exactly.

The serving layer's indexed admission queue has its naive reference here
too: :func:`naive_drop_hopeless` is the full-queue scan the deadline
index replaced.
"""

from __future__ import annotations

import numpy as np

from repro.arch.control import OperatingMode, RangeNormalizer
from repro.errors import DeviceError
from repro.nn.reference import cross_entropy_loss

#: A delta whose peak magnitude is below this is a dead path (the
#: trainer's threshold).
GRAD_EPS = 1e-12


# ----------------------------------------------------------------------
# Detector
# ----------------------------------------------------------------------
def detection_noise(noise, signal: np.ndarray) -> np.ndarray:
    """``signal`` plus one independent Gaussian draw per element with the
    single-detection variance shot^2*|m| + thermal^2 + (rin*m)^2."""
    signal = np.asarray(signal, dtype=np.float64)
    if not noise.enabled:
        return signal.copy()
    std = np.sqrt(
        noise.shot_noise_coeff**2 * np.abs(signal)
        + noise.thermal_noise_std**2
        + (noise.rin_coeff * signal) ** 2
    )
    return signal + noise.rng.standard_normal(signal.shape) * std


def detect_normalized(bpd, differential, scale_w: float = 1.0e-3) -> np.ndarray:
    """Balanced detection with explicit plus/minus branches: the positive
    part on one diode, the negative part on the other, then renormalize."""
    d = np.asarray(differential, dtype=np.float64)
    plus = np.where(d > 0, d, 0.0) * scale_w
    minus = np.where(d < 0, -d, 0.0) * scale_w
    if np.any(plus < 0) or np.any(minus < 0):
        raise DeviceError("optical powers must be non-negative")
    r = bpd.detector.responsivity_a_per_w
    exact = r * (plus - minus) / (r * scale_w)
    return detection_noise(bpd.noise, exact)


# ----------------------------------------------------------------------
# Bank and PE
# ----------------------------------------------------------------------
def bank_matvec(bank, x: np.ndarray) -> np.ndarray:
    """One symbol through ``bank``: the realized block times ``x``.

    ``x`` is zero-padded to the full bank width and mixed through the
    crosstalk matrix (if any); the bank is charged one symbol.
    """
    x = np.asarray(x, dtype=np.float64)
    rows, cols = bank.occupancy
    assert x.shape == (cols,), f"input {x.shape} != programmed columns {cols}"
    full = np.zeros(bank.cols)
    full[:cols] = x
    if bank.crosstalk is not None:
        full = bank.crosstalk @ full
    bank.account_symbols(1)
    return bank.logical_weights[:rows] @ full


def pe_forward(pe, x: np.ndarray) -> np.ndarray:
    """Inference on one sample: the detected logits h = W x (normalized)."""
    return pe.bpd.detect_normalized(bank_matvec(pe.bank, x))


def ldsu_gains(pe, logits: np.ndarray) -> np.ndarray:
    """The f'(h) TIA gains the PE's LDSU latches for one sample's logits."""
    ldsu = pe.ldsu
    return np.where(ldsu.comparator.compare(logits), ldsu.derivative_high, 0.0)


def pe_gradient_vector(pe, delta_next: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """(W^T d) ⊙ f'(h) for one sample; the bank already holds W^T."""
    detected = pe.bpd.detect_normalized(bank_matvec(pe.bank, delta_next))
    return detected * gains[: detected.shape[0]]


def pe_outer_product(pe, delta_h: np.ndarray, y_prev: np.ndarray) -> np.ndarray:
    """d ⊗ y for one sample: program y column-constant, stream diag(d)."""
    pe.bank.program(np.tile(y_prev[:, None], (1, delta_h.shape[0])))
    streamed = pe.bank.matmat(np.diag(delta_h))  # (len(y), len(d))
    return pe.bpd.detect_normalized(streamed).T


def outer_product_stack(pe, delta_h: np.ndarray, y_prev: np.ndarray) -> np.ndarray:
    """(B, d, y) per-sample detected blocks d_b ⊗ y_b, one noisy detection
    per element, charged like B program-then-stream outer products."""
    batch, d = delta_h.shape
    y = y_prev.shape[1]
    realized_y = pe.bank.realize_virtually(y_prev)
    if pe.bank.crosstalk is not None:
        colsum = pe.bank.crosstalk[:d, :d].sum(axis=0)
    else:
        colsum = np.ones(d)
    streamed = realized_y[:, :, None] * (delta_h * colsum)[:, None, :]
    detected = detect_normalized(pe.bpd, streamed)  # (B, y, d)
    pe.bank.account_writes(batch, y * d)
    pe.bank.account_symbols(batch * d)
    return detected.transpose(0, 2, 1)


def summed_outer_product(
    pe, delta_h: np.ndarray, y_prev: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_b weights[b] * (d_b ⊗ y_b) from the per-sample stack."""
    return np.einsum("bij,b->ij", outer_product_stack(pe, delta_h, y_prev), weights)


# ----------------------------------------------------------------------
# Accelerator
# ----------------------------------------------------------------------
def forward(acc, x: np.ndarray, record: list | None = None) -> np.ndarray:
    """One sample through the mapped network, tile by tile.

    With ``record`` (a list), appends one ``(layer input, LDSU gains)``
    pair per layer for :func:`backward`.
    """
    if acc.control.set_mode(OperatingMode.INFERENCE):
        acc.counters.mode_switches += 1
    value = np.asarray(x, dtype=np.float64)
    for layer in acc.layers:
        enc = RangeNormalizer.normalize(value)
        logits_norm = np.zeros(layer.out_dim)
        for r0, r1, c0, c1, pe_index in layer.tiles:
            logits_norm[r0:r1] += pe_forward(acc.pes[pe_index], enc.values[c0:c1])
            acc.counters.symbols += 1
        if record is not None:
            record.append(
                (value.copy(), ldsu_gains(acc.pes[layer.tiles[0][4]], logits_norm))
            )
        logits = logits_norm * enc.scale * layer.weight_scale
        if layer.apply_activation:
            cell = acc.pes[layer.tiles[0][4]].activation
            before = cell.firing_events
            value = cell.fire(logits)
            acc.counters.activation_events += cell.firing_events - before
        else:
            value = logits
    return value


def _gradient_vector(acc, k: int, delta_next: np.ndarray, gains: np.ndarray):
    """delta_k from delta_{k+1} on PE k, reprogrammed with W_{k+1}^T."""
    w_next = acc.layers[k + 1].weights
    pe = acc.pes[acc.layers[k].tiles[0][4]]
    w_norm = RangeNormalizer.normalize(w_next.T.ravel())
    pe.program_weights(w_next.T / w_norm.scale)
    acc.counters.bank_writes += 1
    acc.counters.cells_written += w_next.size
    if acc.control.set_mode(OperatingMode.GRADIENT_VECTOR):
        acc.counters.mode_switches += 1
    d_norm = RangeNormalizer.normalize(delta_next)
    out = pe_gradient_vector(pe, d_norm.values, gains)
    acc.counters.symbols += 1
    return out * w_norm.scale * d_norm.scale


def _outer_product(acc, k: int, delta: np.ndarray, y_prev: np.ndarray):
    """dW_k = delta_k ⊗ y_{k-1} on PE k."""
    pe = acc.pes[acc.layers[k].tiles[0][4]]
    if acc.control.set_mode(OperatingMode.OUTER_PRODUCT):
        acc.counters.mode_switches += 1
    d_norm = RangeNormalizer.normalize(delta)
    y_norm = RangeNormalizer.normalize(y_prev)
    grad = pe_outer_product(pe, d_norm.values, y_norm.values)
    acc.counters.bank_writes += 1
    acc.counters.cells_written += y_prev.size * delta.size
    acc.counters.symbols += delta.size
    return grad * d_norm.scale * y_norm.scale


def backward(acc, record: list, grad_logits: np.ndarray) -> list[np.ndarray]:
    """One sample's photonic backward pass; returns per-layer gradients.

    ``record`` is what :func:`forward` recorded for the sample.  A dead
    path (every delta below :data:`GRAD_EPS`) stops the pass: the
    upstream gradients are zero and nothing more is streamed.
    """
    layers = acc.layers
    grads: list[np.ndarray] = [np.zeros(0)] * len(layers)
    delta = np.asarray(grad_logits, dtype=np.float64)
    for k in reversed(range(len(layers))):
        grads[k] = _outer_product(acc, k, delta, record[k][0])
        if k > 0:
            delta = _gradient_vector(acc, k - 1, delta, record[k - 1][1])
            if np.max(np.abs(delta)) < GRAD_EPS:
                for j in range(k):
                    grads[j] = np.zeros((layers[j].out_dim, layers[j].in_dim))
                break
    return grads


def train_step(acc, lr: float, x_batch: np.ndarray, labels: np.ndarray) -> float:
    """One SGD step, one sample at a time; returns the mean loss.

    Between samples the forward weights are restored (a counted write);
    gradients accumulate digitally and one update is programmed per batch.
    """
    layers = acc.layers
    accum = [np.zeros((layer.out_dim, layer.in_dim)) for layer in layers]
    total_loss = 0.0
    for i, (x, label) in enumerate(zip(x_batch, labels)):
        if i > 0:
            acc.set_weights([layer.weights for layer in layers])
        record: list = []
        logits = forward(acc, x, record)
        loss, grad = cross_entropy_loss(logits[None, :], np.array([label]))
        total_loss += loss
        for a, g in zip(accum, backward(acc, record, grad[0])):
            a += g
    batch = len(x_batch)
    acc.set_weights(
        [layer.weights - lr * a / batch for layer, a in zip(layers, accum)]
    )
    if acc.control.set_mode(OperatingMode.INFERENCE):
        acc.counters.mode_switches += 1
    return total_loss / batch


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def naive_drop_hopeless(queue, now_s: float, min_service_s: float) -> list:
    """Full-scan ``AdmissionQueue.drop_hopeless``: test every resident.

    Rewrites ``queue``'s priority-ordered lists in place and returns the
    dropped requests in pop order.  It leaves the queue's deadline index
    untouched, so a queue driven by this oracle must never also call the
    indexed ``drop_hopeless``.
    """
    kept_keys: list[tuple] = []
    kept_items: list = []
    kept_seqs: list[int] = []
    dropped: list = []
    for key, req, seq in zip(queue._keys, queue._items, queue._seqs):
        if req.slack_s(now_s) < min_service_s:
            dropped.append(req)
        else:
            kept_keys.append(key)
            kept_items.append(req)
            kept_seqs.append(seq)
    queue._keys, queue._items, queue._seqs = kept_keys, kept_items, kept_seqs
    return dropped
