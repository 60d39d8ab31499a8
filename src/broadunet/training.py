"""Losses, Adam, the training loop with best-on-validation checkpointing,
evaluation metrics and the finite-difference gradient-check harness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .archive import atomic_write

BCE_EPS = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    n = pred.size
    return float((diff * diff).mean()), 2.0 * diff / n


def loss_bce(pred: np.ndarray, target: np.ndarray):
    """Binary cross-entropy with predictions clipped to [eps, 1-eps]."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    n = pred.size
    loss = float(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)).mean())
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    grad = np.where(inside, (p - target) / (p * (1.0 - p) * n), 0.0)
    return loss, grad.astype(pred.dtype, copy=False)


LOSSES = {"mse": loss_mse, "bce": loss_bce}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update, in place. A missing or mis-shaped gradient is a
    program fault: it raises `RuntimeError` before any update."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise RuntimeError(f"parameter {name} has no gradient")
        if g.shape != p.shape:
            raise RuntimeError(f"gradient shape mismatch for {name}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    loss: str = "mse"
    learning_rate: float = 1e-4
    batch_size: int = 2
    max_epochs: int = 10
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")


@dataclass
class TrainResult:
    history: list            # (epoch, train_loss, val_loss)
    best_epoch: int
    best_val_loss: float


def _mean_loss(model, sample_set, loss_fn) -> float:
    total = 0.0
    for x, t in zip(sample_set.inputs, sample_set.targets):
        loss, _ = loss_fn(model.forward(x, train=False), t)
        total += loss
    return total / len(sample_set.inputs)


def train(model, train_set, val_set, cfg: TrainConfig) -> TrainResult:
    """Seeded epoch loop over shuffled mini-batches.

    Per-batch gradients are averaged, validation loss is computed after each
    epoch and a checkpoint is written whenever it improves.
    """
    if len(train_set.inputs) == 0 or len(val_set.inputs) == 0:
        raise ValueError("train and validation sets must be nonempty")
    for part in (train_set, val_set):
        if part.inputs.shape[1:] != model.input_shape():
            raise ValueError(f"sample shape {part.inputs.shape[1:]} does not "
                             f"match the model's {model.input_shape()}")
    loss_fn = LOSSES[cfg.loss]
    rng = np.random.default_rng(cfg.seed)
    params = model.named_params()
    state = AdamState.for_params(params)
    n = len(train_set.inputs)
    history = []
    best_epoch, best_val = -1, np.inf
    # a diverging run overflows inside the kernels; the loss check below
    # reports it by epoch, so NumPy's own warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                model.zero_grads()
                for i in batch:
                    y = model.forward(train_set.inputs[i], train=True, rng=rng)
                    loss, grad = loss_fn(y, train_set.targets[i])
                    epoch_loss += loss
                    model.backward(grad / len(batch))
                adam_step(params, model.named_grads(), state, cfg.learning_rate)
            train_loss = epoch_loss / n
            val_loss = _mean_loss(model, val_set, loss_fn)
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise FloatingPointError(
                    f"training diverged in epoch {epoch}: train loss "
                    f"{train_loss}, val loss {val_loss}")
            history.append((epoch, train_loss, val_loss))
            if val_loss < best_val:
                best_epoch, best_val = epoch, val_loss
                if cfg.checkpoint_path is not None:
                    model.save(cfg.checkpoint_path)
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_val_loss=best_val)


def save_history_csv(history, path) -> None:
    """History file: `epoch,train_loss,val_loss`, one row per epoch."""
    with atomic_write(path, "w", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in history:
            writer.writerow([epoch, repr(float(train_loss)), repr(float(val_loss))])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def binarize(x: np.ndarray, threshold: float) -> np.ndarray:
    """Values at or above the threshold become 1, the rest 0."""
    return (x >= threshold).astype(x.dtype)


@dataclass
class MetricsReport:
    mse: float
    mse_binarized: float
    accuracy: float
    precision: float
    recall: float


def _ratio(num: int, den: int, other_den: int) -> float:
    # Undefined-denominator convention: 1 when both confusion denominators
    # are empty (no positives anywhere), else 0.
    if den == 0:
        return 1.0 if other_den == 0 else 0.0
    return num / den


def evaluate(predict, test_set, threshold: float = 0.5) -> MetricsReport:
    """MSE scaled by the set's `norm_factor`, plus pixelwise binary metrics.

    `predict` maps an input window to its prediction, as `Model.predict`
    does. Confusion counts aggregate over all pixels of all samples.
    """
    if len(test_set.inputs) == 0:
        raise ValueError("test set must be nonempty")
    denorm_factor = test_set.metadata.get("norm_factor", 1.0)
    sq_err = 0.0
    tp = fp = fn = tn = 0
    n_pixels = 0
    for x, t in zip(test_set.inputs, test_set.targets):
        pred = predict(x)
        if pred.shape != t.shape:
            raise ValueError(
                f"prediction shape {pred.shape} != target shape {t.shape}")
        diff = (pred - t) * denorm_factor
        sq_err += float((diff * diff).sum())
        pb = binarize(pred, threshold)
        tb = binarize(t, threshold)
        tp += int(np.count_nonzero(pb * tb))
        fp += int(np.count_nonzero(pb > tb))
        fn += int(np.count_nonzero(pb < tb))
        tn += int(np.count_nonzero(pb + tb == 0))
        n_pixels += pred.size
    return MetricsReport(
        mse=sq_err / n_pixels,
        # a binarized squared error is 1 exactly where the two disagree
        mse_binarized=(fp + fn) / n_pixels,
        accuracy=(tp + tn) / n_pixels,
        precision=_ratio(tp, tp + fp, tp + fn),
        recall=_ratio(tp, tp + fn, tp + fp),
    )


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst: str


def grad_check(layer, in_shape, tol=1e-4, step=1e-6, seed=0,
               max_input_coords=64, max_param_coords=200) -> GradCheckReport:
    """Compare a layer's analytic gradients against central finite
    differences on an input of shape `in_shape`.

    A layer whose convs are not all initialized is initialized here in f64;
    any other layer must hold only f64 parameters. The scalar objective is
    sum(output * r) for a fixed random r. Every forward runs in training
    mode on a freshly seeded rng, so dropout draws the same mask each time
    and its backward is checked too. Relative error uses max(|a|, |fd|,
    1e-3 * grad_rms) as the denominator so near-zero coordinates do not
    amplify rounding noise.
    """
    rng = np.random.default_rng(seed)
    convs = [conv for _, conv in layer.convs()]
    if any(not conv.params for conv in convs):
        init_rng = np.random.default_rng(seed + 1)
        for conv in convs:
            conv.init_params(init_rng, dtype=np.float64)
    elif any(p.dtype != np.float64 for conv in convs
             for p in conv.params.values()):
        raise ValueError("gradient checks require f64 parameters")
    x = rng.standard_normal(in_shape)

    def fwd():
        return layer.forward(x, train=True, rng=np.random.default_rng(seed + 2))

    y = fwd()
    r = rng.standard_normal(y.shape)
    layer.zero_grads()
    gx = layer.backward(r.copy())
    grads = layer.named(lambda conv: conv.grads)
    params = layer.named(lambda conv: conv.params)

    # pooled scale keeps the relative error meaningful at tiny gradients
    pool = [np.abs(gx).ravel()] + [np.abs(g).ravel() for g in grads.values()]
    g_rms = float(np.sqrt(np.mean(np.concatenate(pool) ** 2)))
    floor = max(1e-3 * g_rms, 1e-12)

    # (report key, array, analytic gradient, flat index) per checked coordinate
    coords = [("input", x, gx, int(i)) for i in rng.choice(
        x.size, size=min(max_input_coords, x.size), replace=False)]
    names = list(params)
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    if total:
        bounds = np.cumsum(sizes)
        for pos in sorted(rng.choice(total, size=min(max_param_coords, total),
                                     replace=False)):
            pi = int(np.searchsorted(bounds, pos, side="right"))
            name = names[pi]
            analytic = grads.get(name, np.zeros_like(params[name]))
            coords.append((name, params[name], analytic,
                           int(pos - (bounds[pi] - sizes[pi]))))

    worst_err, worst_name = 0.0, "none"
    for key, arr, analytic, idx in coords:
        flat = arr.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + step
        splus = float((fwd() * r).sum())
        flat[idx] = orig - step
        sminus = float((fwd() * r).sum())
        flat[idx] = orig
        fd = (splus - sminus) / (2.0 * step)
        a = analytic.reshape(-1)[idx]
        rel = abs(a - fd) / max(abs(a), abs(fd), floor)
        if rel > worst_err:
            label = key if key == "input" else f"param:{key}"
            worst_err, worst_name = rel, f"{label}[{idx}]"

    return GradCheckReport(passed=worst_err < tol, max_rel_error=worst_err,
                           worst=worst_name)
