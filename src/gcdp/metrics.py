"""Layout-aware evaluation: class-detection recall/precision/F, the
Fréchet distance between class pixel-count statistics of layout sets, mean
IoU, and a total-variation check against the toy grammar's exact law.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .scenes import SceneConfig, analytic_statistic_distribution, scene_statistic


def detected_classes(layout: np.ndarray) -> set[int]:
    return {int(c) for c in np.unique(np.asarray(layout))}


def _detection_scores(pairs, segment, denominator: str):
    if len(pairs) == 0:
        raise ValidationError("need at least one (image, class-set) pair")
    scores = []
    hits: dict[int, list[bool]] = {}
    for image, gt in pairs:
        gt = {int(c) for c in gt}
        if not gt:
            raise ValidationError("ground-truth class set must be nonempty")
        det = detected_classes(segment(image))
        inter = len(det & gt)
        denom = len(gt) if denominator == "gt" else len(det)
        scores.append(inter / denom if denom else 0.0)
        for c in gt:
            hits.setdefault(c, []).append(c in det)
    table = {c: float(np.mean(v)) for c, v in sorted(hits.items())}
    return float(np.mean(scores)), table


def semantic_recall(pairs, segment) -> tuple[float, dict[int, float]]:
    """Mean over samples of |detected ∩ expected| / |expected|, where the
    detected set is read off the segmenter's output for each image. Also
    returns the per-class detection-rate table."""
    return _detection_scores(pairs, segment, "gt")


def semantic_precision(pairs, segment) -> float:
    """Mean over samples of |detected ∩ expected| / |detected|."""
    return _detection_scores(pairs, segment, "det")[0]


def semantic_f(recall: float, precision: float) -> float:
    """Harmonic mean; 0 when either input is 0."""
    if not (0.0 <= recall <= 1.0 and 0.0 <= precision <= 1.0):
        raise ValidationError("recall and precision must lie in [0, 1]")
    if recall == 0.0 or precision == 0.0:
        return 0.0
    return 2.0 / (1.0 / recall + 1.0 / precision)


def class_counts(layouts: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-sample class pixel-count vectors, (n, M) labels -> (n, K)."""
    layouts = np.asarray(layouts, dtype=np.int64)
    if layouts.ndim != 2:
        raise ValidationError("layouts must be an (n, M) array")
    n = layouts.shape[0]
    out = np.zeros((n, n_classes), dtype=np.float64)
    for k in range(1, n_classes + 1):
        out[:, k - 1] = (layouts == k).sum(axis=1)
    return out


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.T) / 2.0)
    # negative eigenvalues are clipped; so is round-off noise near zero,
    # which sqrt would otherwise inflate (sqrt(1e-14) = 1e-7)
    cutoff = max(float(w.max(initial=0.0)), 0.0) * 1e-13
    w = np.where(w > cutoff, w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def frechet_gaussians(mu1: np.ndarray, cov1: np.ndarray, mu2: np.ndarray, cov2: np.ndarray) -> float:
    """||mu1 - mu2||^2 + Tr(cov1 + cov2 - 2 (cov1 cov2)^{1/2}).

    The cross term uses Tr (cov1 cov2)^{1/2} = Tr (S cov2 S)^{1/2} with
    S = cov1^{1/2}, evaluated by symmetric eigendecomposition with negative
    eigenvalues clipped at zero. Both argument orders of the cross term are
    summed and the traces are added before the cross terms are subtracted,
    so the result is bitwise symmetric despite eigensolver round-off."""
    mu1, mu2 = np.atleast_1d(mu1), np.atleast_1d(mu2)
    cov1, cov2 = np.atleast_2d(cov1), np.atleast_2d(cov2)
    if not all(np.all(np.isfinite(a)) for a in (mu1, mu2, cov1, cov2)):
        raise ValidationError("statistics must be finite")
    cross12 = np.trace(_sym_sqrt(_sym_sqrt(cov1) @ cov2 @ _sym_sqrt(cov1)))
    cross21 = np.trace(_sym_sqrt(_sym_sqrt(cov2) @ cov1 @ _sym_sqrt(cov2)))
    diff = mu1 - mu2
    return float(diff @ diff + (np.trace(cov1) + np.trace(cov2)) - (cross12 + cross21))


def fsd(gen_layouts: np.ndarray, real_layouts: np.ndarray, n_classes: int) -> float:
    """Fréchet distance between Gaussians fitted to the class pixel-count
    vectors of the two layout sets."""
    cg = class_counts(gen_layouts, n_classes)
    cr = class_counts(real_layouts, n_classes)
    if cg.shape[0] < 2 or cr.shape[0] < 2:
        raise ValidationError("need at least 2 layouts per side to estimate covariance")
    return frechet_gaussians(
        cg.mean(axis=0), np.cov(cg, rowvar=False, ddof=1),
        cr.mean(axis=0), np.cov(cr, rowvar=False, ddof=1),
    )


def miou(a: np.ndarray, b: np.ndarray, n_classes: int) -> float:
    """Mean IoU over the classes present in either layout."""
    a = np.asarray(a, dtype=np.int64).reshape(-1)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if a.shape != b.shape:
        raise ValidationError("layouts must have equal shape")
    ious = []
    for k in range(1, n_classes + 1):
        in_a = a == k
        in_b = b == k
        union = np.count_nonzero(in_a | in_b)
        if union == 0:
            continue
        ious.append(np.count_nonzero(in_a & in_b) / union)
    return float(np.mean(ious)) if ious else 1.0


def joint_tv(gen_layouts: np.ndarray, cfg: SceneConfig, min_samples: int = 1000) -> float:
    """Total variation between the empirical law of the layout summary
    statistic and the grammar's exact law."""
    gen_layouts = np.asarray(gen_layouts, dtype=np.int64)
    if gen_layouts.ndim != 2:
        raise ValidationError("gen_layouts must be an (n, M) array")
    n = gen_layouts.shape[0]
    if n < min_samples:
        raise ValidationError(f"need at least {min_samples} samples, got {n}")
    emp: dict[tuple, float] = {}
    w = 1.0 / n
    for row in gen_layouts:
        key = scene_statistic(row, cfg)
        emp[key] = emp.get(key, 0.0) + w
    ref = analytic_statistic_distribution(cfg)
    keys = set(emp) | set(ref)
    return 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)


@dataclass
class EvalReport:
    """Bundle of the evaluation metrics; f is the harmonic mean of recall
    and precision, tv_distance is NaN when too few samples were given."""

    semantic_recall: float
    semantic_precision: float
    semantic_f: float
    fsd: float
    miou: float
    tv_distance: float
    per_class_recall: dict[int, float] = field(default_factory=dict)
    semantic_recall_layout: float = float("nan")
