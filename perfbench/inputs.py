"""Workload inputs, made from the benchmark seed alone.

Kept apart from the checks so that a set-up measurement imports nothing
but dfgof, numpy and this module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TEST_N = 500
# Strong enough that the observed ks_abs (about 8) exceeds every null
# replicate (median about 0.85) on any seed, so the p-value is 1/(B+1).
SHIFT_AMPLITUDE = 40.0


def bilinear_mean(x: np.ndarray) -> np.ndarray:
    """bilinear2d mean at theta = (1, 1, 1, 1), centred on the sample."""
    x1, x2 = x[:, 0], x[:, 1]
    return 1.0 + (x1 - x1.mean()) + (x2 - x2.mean()) + (x1 * x2 - (x1 * x2).mean())


def dependent_beta_design(n: int, rng: np.random.Generator) -> np.ndarray:
    """x1 uniform on [0, 1], x2 | x1 ~ Beta(8 (1 - x1), 8 x1)."""
    x1 = rng.uniform(0.0, 1.0, size=n)
    x2 = rng.beta(np.maximum(8.0 * (1.0 - x1), 1e-12), np.maximum(8.0 * x1, 1e-12))
    return np.column_stack([x1, x2])


def prepare(workload: str, root: Path, workdir: Path, seed: int) -> dict[str, Path]:
    """Inputs of one workload: the shipped config a simulate workload
    overrides by flags, or the data files of ``test-p2``."""
    if workload == "test-p2":
        return write_test_files(workdir, seed)
    name = {"simulate-p1": "null_univariate.cfg", "simulate-p2": "null_bivariate.cfg"}[workload]
    config = root / "configs" / name
    if not config.is_file():
        raise FileNotFoundError(f"missing config file {config}")
    return {"config": config}


def _write_sample(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", fmt="%.17g", header="x1,x2,y", comments="")


def write_test_files(workdir: Path, seed: int) -> dict[str, Path]:
    """Null and shifted bilinear2d samples on one covariate draw.

    Both files share X and the errors; the shifted one adds
    SHIFT_AMPLITUDE * x2^3 to the response.
    """
    rng = np.random.default_rng([seed, TEST_N])
    x = dependent_beta_design(TEST_N, rng)
    y = bilinear_mean(x) + rng.standard_normal(TEST_N)
    files = {"null": workdir / "null.csv", "shifted": workdir / "shifted.csv"}
    _write_sample(files["null"], x, y)
    _write_sample(files["shifted"], x, y + SHIFT_AMPLITUDE * x[:, 1] ** 3)
    return files
