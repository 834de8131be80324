"""Byte-level equivalence of two gcdp source trees.

    python3 tools/equivalence.py PARENT_SRC CHANGE_SRC [--work DIR]

Runs one fixed set of `gcdp` calls against each `src` directory, in a
subprocess that imports gcdp from that directory with BLAS pinned to one
thread, and compares every output directory by `perfbench.checks.tree_digest`
(all files except config.txt, which names the output directory). The calls:

  generate-data  a 256-scene 8x8 training set and a 4-scene known set, and
                 (compared only) a horizon-only set, a blob-only set of 6x9
                 scenes with K=6, a noiseless set with a custom palette, and
                 an empty set
  train          40 steps at T in {100, 1000} x p in {1, 3}
  sample         on each checkpoint, stride 100 and 10, unguided and at w=2
  outpaint       on each checkpoint, layout (n=1), image (n=5), and three
                 mask files that the tool writes with each tree's own gcdp.io:
                 a fixed partial mask (n=3) that knows the left half of the
                 image and the top half of the layout, an all-zero mask (n=3,
                 plain sampling) and an all-one mask (n=1, the known set)
  evaluate       on each sample and outpaint tree, against the training set

Then the change tree runs every sample, outpaint and evaluate call once more
on the parent tree's inputs (its checkpoints, known set, mask and sample
trees), and each output is compared with the parent's own. Those rows,
marked "@parent", show the inference path byte-identical even when a change
moves the bits of training and so of every checkpoint.

Prints one row per call with both digests and wall times, and exits 0 when
every digest is equal, 1 otherwise. Outputs go to DIR/{parent,change,cross}/
(a temporary directory that is removed afterwards when --work is not given).
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.checks import tree_digest  # noqa: E402
from perfbench.run import THREAD_VARS  # noqa: E402

SCENE = ["--height", 8, "--width", 8, "--classes", 4]
MODEL = ["--steps", 40, "--batch", 64, "--log-every", 10, "--seed", 3]
SCHEDULES = [(100, 1.0), (100, 3.0), (1000, 1.0), (1000, 3.0)]
N_SAMPLES = 8
N_KNOWN = 4
MASK_CODE = (
    "import sys, numpy as np; from gcdp import io; "
    "col, row = np.tile(np.arange(8), 8), np.repeat(np.arange(8), 8); "
    "io.save_mask(sys.argv[1] + '/partial.gcmk', np.concatenate([col < 4, row < 4])); "
    "io.save_mask(sys.argv[1] + '/zeros.gcmk', np.zeros(128, bool)); "
    "io.save_mask(sys.argv[1] + '/ones.gcmk', np.ones(128, bool))"
)


def calls() -> list[tuple[str, list]]:
    """(output name, argv without --out) in run order; later calls read the
    outputs of earlier ones by name, as {out:NAME}/FILE."""
    out = [
        ("data", ["generate-data", *SCENE, "--count", 256, "--seed", 1]),
        ("known", ["generate-data", *SCENE, "--count", N_KNOWN, "--seed", 2]),
        ("data_horizon", ["generate-data", *SCENE, "--grammar", "horizon", "--count", 64, "--seed", 6]),
        ("data_blob_k6_6x9", ["generate-data", "--height", 6, "--width", 9, "--classes", 6,
                              "--grammar", "horizon+blob", "--count", 64, "--seed", 7]),
        ("data_sigma0_palette", ["generate-data", *SCENE, "--sigma-data", 0, "--palette=-1,-0.2,0.3,1",
                                 "--count", 64, "--seed", 8]),
        ("data_count0", ["generate-data", *SCENE, "--count", 0, "--seed", 9]),
    ]
    for big_t, p in SCHEDULES:
        ck = f"train_T{big_t}_p{p:g}"
        out.append((ck, ["train", "--data", "{out:data}/dataset.gcds", *MODEL, "--T", big_t, "--p-power", p]))
        for stride in (100, 10):
            base = ["sample", "--ckpt", f"{{out:{ck}}}/model.gcdp", "--count", N_SAMPLES,
                    "--stride", stride, "--seed", 4]
            out.append((f"{ck}_sample_s{stride}", [*base, "--cond", -1]))
            out.append((f"{ck}_sample_s{stride}_w2", [*base, "--cond", 1, "--guidance-w", 2]))
        base = ["outpaint", "--ckpt", f"{{out:{ck}}}/model.gcdp", "--known", "{out:known}/dataset.gcds",
                "--seed", 5]
        out.append((f"{ck}_outpaint_layout", [*base, "--mask-mode", "layout", "--resample-n", 1]))
        out.append((f"{ck}_outpaint_image", [*base, "--mask-mode", "image", "--resample-n", 5]))
        for mask, n in (("partial", 3), ("zeros", 3), ("ones", 1)):
            out.append((f"{ck}_outpaint_{mask}",
                        [*base, "--mask-mode", "file", "--mask", f"{{out:mask}}/{mask}.gcmk", "--resample-n", n]))
    samples = [name for name, argv in out if argv[0] in ("sample", "outpaint")]
    out += [(f"{name}_eval", ["evaluate", "--samples", f"{{out:{name}}}", "--data", "{out:data}/dataset.gcds"])
            for name in samples]
    return out


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})


def write_mask(src: Path, work: Path):
    """Write the partial, all-zero and all-one masks to
    work/mask/{partial,zeros,ones}.gcmk with src's gcdp.io."""
    (work / "mask").mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-c", MASK_CODE, str(work / "mask")], env=_env(src), check=True)


def run_call(src: Path, work: Path, name: str, argv: list, inputs: Path | None = None) -> float:
    """Run `gcdp <argv> --out work/name` importing gcdp from src, reading
    {out:NAME} from inputs (default: work); seconds."""
    args = []
    for a in argv:
        a = str(a)
        if a.startswith("{out:"):
            ref, _, rest = a[len("{out:"):].partition("}")
            a = str((inputs or work) / ref) + rest
        args.append(a)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gcdp.cli", *args, "--out", str(work / name)],
        env=_env(src), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{src}: gcdp {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return time.perf_counter() - t0


def compare(parent_src: Path, change_src: Path, work: Path) -> bool:
    plan = calls()
    sides = {"parent": parent_src, "change": change_src}
    digests = {side: {} for side in sides}
    walls = {side: {} for side in sides}
    for side, src in sides.items():
        write_mask(src, work / side)
        for name, argv in plan:
            walls[side][name] = run_call(src, work / side, name, argv)
            digests[side][name] = tree_digest(work / side / name)
    # (row name, call name, side whose output the row holds against the parent's)
    rows = [(name, name, "change") for name, _ in plan]
    digests["cross"], walls["cross"] = {}, {}
    for name, argv in plan:
        if argv[0] in ("sample", "outpaint", "evaluate"):
            walls["cross"][name] = run_call(change_src, work / "cross", name, argv, inputs=work / "parent")
            digests["cross"][name] = tree_digest(work / "cross" / name)
            rows.append((f"{name} @parent", name, "cross"))
    print(f"{'output':44} {'parent':12} {'change':12} {'s parent':>9} {'s change':>9}  equal")
    same = {"change": 0, "cross": 0}
    for row, name, side in rows:
        d_p, d_c = digests["parent"][name], digests[side][name]
        same[side] += d_p == d_c
        print(f"{row:44} {d_p[:12]} {d_c[:12]} {walls['parent'][name]:9.2f} {walls[side][name]:9.2f}  "
              f"{'yes' if d_p == d_c else 'NO'}")
    print(f"{same['change']} of {len(plan)} output trees equal; {same['cross']} of {len(rows) - len(plan)} "
          f"equal when the change reads the parent's inputs (@parent)")
    return sum(same.values()) == len(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path, help="src directory of the reference tree")
    ap.add_argument("change_src", type=Path, help="src directory of the changed tree")
    ap.add_argument("--work", type=Path, default=None, help="keep the outputs in this directory")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "gcdp" / "cli.py").is_file():
            ap.error(f"{src} holds no gcdp package")
    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    if args.work is not None:
        return 0 if compare(*srcs, args.work.resolve()) else 1
    with tempfile.TemporaryDirectory() as tmp:
        return 0 if compare(*srcs, Path(tmp)) else 1


if __name__ == "__main__":
    sys.exit(main())
