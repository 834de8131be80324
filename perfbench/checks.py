"""Output checks: properties every correct gcdp run has, whatever its seed.

Each check raises CheckFailed with what it saw. None of them compares
against stored output of an earlier version; they test what the method
guarantees: labels in {1..K}, known coordinates carried through outpainting
unchanged, equal seeds giving equal files, guidance at w = 0 reducing to
the unconditional prediction, and training lowering the variational bound.
"""

import hashlib
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def tree_digest(out_dir) -> str:
    """Digest of every file in out_dir except config.txt (which names the
    output directory), by name and content."""
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        if p.name != "config.txt":
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def read_pgm(path, height: int, width: int) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CheckFailed(f"{path}: cannot be read ({e.strerror})") from None
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + height * width:
        raise CheckFailed(f"{path}: not a {width}x{height} binary PGM")
    return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(height, width)


def read_samples_dir(out_dir, count: int, height: int, width: int, conds) -> tuple[np.ndarray, np.ndarray]:
    """Check the manifest lists samples 0..count-1 with the expected
    conditions and that every file exists; return (images, layouts) as
    (count, height*width) uint8 arrays."""
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        raise CheckFailed(f"{out_dir}: no manifest.txt")
    rows = [line.split() for line in manifest.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(rows) != count:
        raise CheckFailed(f"{manifest}: {len(rows)} rows, expected {count}")
    conds = np.broadcast_to(np.asarray(conds), (count,))
    images, layouts = [], []
    for i, row in enumerate(rows):
        if len(row) != 4 or row[0] != str(i) or row[3] != str(int(conds[i])):
            raise CheckFailed(f"{manifest}: row {i} reads {row}, expected index {i} and condition {conds[i]}")
        images.append(read_pgm(out_dir / row[1], height, width).reshape(-1))
        layouts.append(read_pgm(out_dir / row[2], height, width).reshape(-1))
    return np.stack(images), np.stack(layouts)


def check_labels(layouts: np.ndarray, n_classes: int, what: str):
    bad = (layouts < 1) | (layouts > n_classes)
    if bad.any():
        i = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise CheckFailed(f"{what}: {int(bad.sum())} labels outside 1..{n_classes} (first in sample {i})")


def check_equal(got: np.ndarray, want: np.ndarray, what: str):
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    diff = got != want
    if diff.any():
        raise CheckFailed(f"{what}: {int(diff.sum())} of {diff.size} values differ (first at flat index {int(np.argmax(diff))})")


def expected_trace_steps(steps: int, log_every: int) -> list[int]:
    """Steps at which training logs its loss: every log_every-th and the last."""
    return sorted({s for s in range(steps) if s % log_every == 0} | ({steps - 1} if steps else set()))


def check_loss_trace(path, steps: int, log_every: int):
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    want = expected_trace_steps(steps, log_every)
    got = [int(r[0]) for r in rows]
    if got != want:
        raise CheckFailed(f"{path}: logged steps {got}, expected {want}")
    values = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path}: non-finite loss entries {values[~np.isfinite(values)].tolist()}")


def check_bound_fell(bound_init: float, bound_final: float, max_ratio: float):
    """The held-out bound after training is finite and at most max_ratio of
    its value at the initial parameters."""
    if not (np.isfinite(bound_init) and np.isfinite(bound_final)):
        raise CheckFailed(f"held-out bound not finite: initial {bound_init}, trained {bound_final}")
    if not bound_final <= max_ratio * bound_init:
        raise CheckFailed(
            f"held-out bound {bound_final:.1f} after training is not below {max_ratio} x "
            f"its initial value {bound_init:.1f}"
        )


def heldout_bound(ckpt_path, dataset_path, lambda_cat: float, rng_seed: int) -> float:
    """Mean per-item variational bound (nats) of a written checkpoint on a
    dataset file, from a fixed generator."""
    from gcdp import io as gio
    from gcdp.scenes import dataset_arrays
    from gcdp.training import vlb_loss

    ck = gio.load_checkpoint(ckpt_path)
    _, samples = gio.load_dataset(dataset_path)
    x, y, c = dataset_arrays(samples)
    return float(vlb_loss(x, y, c, ck.model, ck.sched, np.random.default_rng(rng_seed), lambda_cat=lambda_cat)[0])
