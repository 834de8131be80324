"""Procedural image-layout-condition triples with a known joint law.

Scenes are HxW single-channel images paired with per-pixel class labels.
The grammar draws a scene type uniformly:

  "horizon"       sky (class 1) above a uniformly random split row,
                  ground (class 2) below;
  "horizon+blob"  the same, plus one rectangular blob of a class drawn
                  uniformly from {3..K}, with side lengths in {2..4} and a
                  uniformly random position.

Pixels are the palette level of their class plus N(0, sigma_data^2)
texture noise, clipped to [-1, 1]. Every random choice is discrete and
uniform (given its parents), so the distribution of any layout statistic
can be computed exactly by enumerating the grammar; that enumeration is
the reference law for the total-variation check.

Scene i of a dataset draws from its own generator, default_rng of the
i-th child of SeedSequence(seed), in this order: the scene-type index,
the horizon row, then for a blob scene the blob class, the height-side
index, the width-side index, the top row and the left column, and last
the N standard normals of its texture. Only the draws run per scene:
the layouts, images and condition IDs of all scenes are formed as arrays.

The condition ID encodes the set of classes present in the layout, the
stand-in for a caption that lists the visible classes. Blobs are at most
4 wide on grids at least 5 wide, so both horizon classes stay visible and
the class set is a deterministic function of (scene type, blob class).
"""

from dataclasses import dataclass

import numpy as np

from .distribution import JointSample
from .errors import ValidationError

SCENE_TYPES = ("horizon", "horizon+blob")
BLOB_SIDES = (2, 3, 4)
PROP_BINS = 8
MIN_PALETTE_SEP_SIGMAS = 4.0


def default_palette(n_classes: int) -> tuple[float, ...]:
    return tuple(np.linspace(-0.75, 0.75, n_classes))


@dataclass(frozen=True)
class SceneConfig:
    height: int = 8
    width: int = 8
    n_classes: int = 4
    palette: tuple[float, ...] = ()
    sigma_data: float = 0.05
    grammar: tuple[str, ...] = SCENE_TYPES
    seed: int = 0

    def __post_init__(self):
        if self.height < 2 or self.width < 2:
            raise ValidationError("scene must be at least 2x2")
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if not self.palette:
            object.__setattr__(self, "palette", default_palette(self.n_classes))
        palette = tuple(float(v) for v in self.palette)
        object.__setattr__(self, "palette", palette)
        if len(palette) != self.n_classes:
            raise ValidationError("palette must list one level per class")
        if any(not (-1.0 <= v <= 1.0) for v in palette):
            raise ValidationError("palette levels must lie in [-1, 1]")
        if self.sigma_data < 0.0:
            raise ValidationError("sigma_data must be nonnegative")
        if self.sigma_data > 0.0:
            levels = np.sort(np.asarray(palette))
            sep = np.min(np.diff(levels))
            if sep < MIN_PALETTE_SEP_SIGMAS * self.sigma_data:
                raise ValidationError(
                    f"palette levels must be separated by >= {MIN_PALETTE_SEP_SIGMAS:g} * sigma_data "
                    f"(min separation {sep:g}, sigma {self.sigma_data:g})"
                )
        if len(self.grammar) == 0:
            raise ValidationError("grammar must list at least one scene type")
        for g in self.grammar:
            if g not in SCENE_TYPES:
                raise ValidationError(f"unknown scene type {g!r}")
        if "horizon+blob" in self.grammar:
            if self.n_classes < 3:
                raise ValidationError("blob scenes need a class beyond the two horizon classes")
            if self.height <= max(BLOB_SIDES) or self.width <= max(BLOB_SIDES):
                raise ValidationError(
                    f"blob scenes need height and width > {max(BLOB_SIDES)} so the horizon stays visible"
                )

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    @property
    def class_sets(self) -> tuple[tuple[int, ...], ...]:
        """All class sets the grammar can produce, in canonical order; the
        condition ID is an index into this tuple."""
        sets: list[tuple[int, ...]] = []
        if "horizon" in self.grammar:
            sets.append((1, 2))
        if "horizon+blob" in self.grammar:
            sets.extend((1, 2, c) for c in range(3, self.n_classes + 1))
        return tuple(sets)

    @property
    def n_conds(self) -> int:
        return len(self.class_sets)

    def cond_of_class_set(self, classes) -> int:
        key = tuple(sorted(int(c) for c in classes))
        try:
            return self.class_sets.index(key)
        except ValueError:
            raise ValidationError(f"class set {key} is outside the grammar") from None


@dataclass(frozen=True)
class SceneSample:
    sample: JointSample
    cond: int


def _paint_layouts(cfg: SceneConfig, horizon, cls, bh, bw, top, left) -> np.ndarray:
    """(n, N) int64 layouts, one per entry of the broadcast arguments: sky
    (class 1) in the rows above `horizon`, ground (class 2) below, and a
    `bh` x `bw` blob of class `cls` at (`top`, `left`); bh = 0 paints no
    blob."""
    rows = np.arange(cfg.height)[:, None]
    cols = np.arange(cfg.width)
    horizon, cls, bh, bw, top, left = (np.asarray(v)[..., None, None] for v in (horizon, cls, bh, bw, top, left))
    in_blob = ((rows >= top) & (rows < top + bh)) & ((cols >= left) & (cols < left + bw))
    lay = np.where(in_blob, cls, np.where(rows < horizon, 1, 2))
    return lay.reshape(-1, cfg.n_pixels)


def _class_set(blob_cls: int) -> tuple[int, ...]:
    """The class set of a layout whose blob has class `blob_cls`; 0: no blob."""
    return (1, 2, blob_cls) if blob_cls else (1, 2)


def generate(cfg: SceneConfig, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(images (count, N) float64, layouts (count, N) int64, conditions
    (count,) int64), deterministic per cfg.seed. Each item draws from its
    own stream, in the order the module docstring gives, so the first k
    items do not depend on count."""
    if count < 0:
        raise ValidationError("count must be nonnegative")
    n_types, n_sides = len(cfg.grammar), len(BLOB_SIDES)
    draws = np.zeros((count, 6), dtype=np.int64)  # horizon, cls, bh, bw, top, left; bh = bw = 0: no blob
    x = np.empty((count, cfg.n_pixels))
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(count)):
        rng = np.random.default_rng(child)
        scene_type = cfg.grammar[rng.integers(n_types)]
        horizon = rng.integers(1, cfg.height)
        if scene_type == "horizon+blob":
            cls = rng.integers(3, cfg.n_classes + 1)
            bh = BLOB_SIDES[rng.integers(n_sides)]
            bw = BLOB_SIDES[rng.integers(n_sides)]
            top = rng.integers(0, cfg.height - bh + 1)
            draws[i] = horizon, cls, bh, bw, top, rng.integers(0, cfg.width - bw + 1)
        else:
            draws[i, 0] = horizon
        rng.standard_normal(out=x[i])
    y = _paint_layouts(cfg, *draws.T)
    x *= cfg.sigma_data
    x += np.asarray(cfg.palette)[y - 1]
    np.clip(x, -1.0, 1.0, out=x)
    # blobs never cover a whole row, so a layout's class set follows from its blob class
    blob_cls, which = np.unique(draws[:, 1], return_inverse=True)
    conds = np.array([cfg.cond_of_class_set(_class_set(k)) for k in blob_cls.tolist()], dtype=np.int64)
    return x, y, conds[which.reshape(-1)]


def dataset_arrays(samples: list[SceneSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(images (n, N), labels (n, M), conditions (n,)) stacked for training."""
    x = np.stack([s.sample.x for s in samples])
    y = np.stack([s.sample.y for s in samples])
    c = np.array([s.cond for s in samples], dtype=np.int64)
    return x, y, c


def scene_samples(arrays: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[SceneSample]:
    """The samples of (images, labels, conditions) arrays; the inverse of
    dataset_arrays."""
    return [SceneSample(sample=JointSample(x=xi, y=yi), cond=int(ci)) for xi, yi, ci in zip(*arrays)]


def oracle_segment(image: np.ndarray, cfg: SceneConfig) -> np.ndarray:
    """Nearest-palette-level classification per pixel; ties go to the lower
    class index. Accepts (..., N) arrays and returns 1-based labels."""
    image = np.asarray(image, dtype=np.float64)
    levels = np.asarray(cfg.palette)
    dist = np.abs(image[..., None] - levels)
    return np.argmin(dist, axis=-1) + 1


def scene_statistic(layout: np.ndarray, cfg: SceneConfig) -> tuple[tuple[int, ...], int]:
    """Discretized summary of one layout: (present class set, quantized
    class-1 proportion). The reference law of this statistic is exactly
    enumerable from the grammar."""
    layout = np.asarray(layout).reshape(-1)
    classes = tuple(sorted(int(c) for c in np.unique(layout)))
    p1 = float(np.mean(layout == 1))
    return classes, min(int(p1 * PROP_BINS), PROP_BINS - 1)


def analytic_statistic_distribution(cfg: SceneConfig) -> dict[tuple, float]:
    """Exact law of scene_statistic under the grammar, by enumerating every
    discrete choice with its probability. The layouts of one scene type, or
    of one horizon and blob class, are painted together, and probabilities
    are added in the order scene type, horizon, blob class, height side,
    width side, top, left."""
    dist: dict[tuple, float] = {}
    p_type = 1.0 / len(cfg.grammar)
    p_horizon = 1.0 / (cfg.height - 1)
    for scene_type in cfg.grammar:
        if scene_type == "horizon":
            horizons = np.arange(1, cfg.height)
            chunks = [(_class_set(0), _paint_layouts(cfg, horizons, 0, 0, 0, 0, 0), np.full(horizons.size, p_type * p_horizon))]
        else:
            p_geom = 1.0 / ((cfg.n_classes - 2) * len(BLOB_SIDES) ** 2)
            # (bh, bw, top, left, probability of the position) of every blob geometry
            geoms = [
                (bh, bw, top, left, 1.0 / ((cfg.height - bh + 1) * (cfg.width - bw + 1)))
                for bh in BLOB_SIDES
                for bw in BLOB_SIDES
                for top in range(cfg.height - bh + 1)
                for left in range(cfg.width - bw + 1)
            ]
            bh, bw, top, left, p_pos = (np.array(v) for v in zip(*geoms))
            chunks = (
                (_class_set(cls), _paint_layouts(cfg, horizon, cls, bh, bw, top, left), p_type * p_horizon * p_geom * p_pos)
                for horizon in range(1, cfg.height)
                for cls in range(3, cfg.n_classes + 1)
            )
        for classes, lays, probs in chunks:
            p1 = np.count_nonzero(lays == 1, axis=1) / cfg.n_pixels
            bins = np.minimum((p1 * PROP_BINS).astype(np.int64), PROP_BINS - 1)
            for b, p in zip(bins.tolist(), probs.tolist()):
                key = (classes, b)
                dist[key] = dist.get(key, 0.0) + p
    return dist
