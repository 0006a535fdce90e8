"""Return-series ingestion and synthetic process generators.

CSV is the only ingestion format: UTF-8 (with or without a byte-order mark),
comma-delimited, header row required, decimal point values. Loaders reject
non-finite values so every series handed to a model satisfies the
ReturnSeries invariants. All generators are deterministic functions of
their seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """CSV ingestion failure, with the offending row where applicable."""


@dataclass
class ReturnSeries:
    """Ordered return observations with optional ISO-8601 date labels."""

    values: np.ndarray
    labels: list[str] | None = None
    name: str = "series"

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("a return series needs at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("return series values must be finite")
        if self.labels is not None:
            self.labels = list(self.labels)
            if len(self.labels) != self.values.size:
                raise ValueError("labels and values must have the same length")
            for a, b in zip(self.labels, self.labels[1:]):
                if not a < b:
                    raise ValueError(f"labels must strictly increase ({a!r} !< {b!r})")

    def __len__(self) -> int:
        return int(self.values.size)


def load_csv(path, value_column: str = "return", label_column: str | None = None
             ) -> ReturnSeries:
    """Parse a return series, named after the file's stem, from a headered
    CSV file.

    Errors name the offending column or row (header is row 1).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for kind, column in (("value", value_column), ("label", label_column)):
            if column is not None and column not in header:
                raise ParseError(f"{path}: {kind} column {column!r} not found in header {header}")
        v_idx = header.index(value_column)
        l_idx = None if label_column is None else header.index(label_column)

        values: list[float] = []
        labels: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue  # empty line; a row of blank cells still errors below
            if v_idx >= len(row) or not row[v_idx].strip():
                raise ParseError(f"{path}: row {row_no}: missing value in column {value_column!r}")
            cell = row[v_idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}: non-numeric value {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(f"{path}: row {row_no}: non-finite value {cell!r}")
            values.append(value)
            if l_idx is not None:
                if l_idx >= len(row) or not row[l_idx].strip():
                    raise ParseError(f"{path}: row {row_no}: missing label")
                labels.append(row[l_idx].strip())

    if not values:
        raise ParseError(f"{path}: no data rows")
    return ReturnSeries(
        np.array(values),
        labels=labels if l_idx is not None else None,
        name=path.stem,
    )


def write_csv(series: ReturnSeries, path) -> None:
    """Write a series, values under "return" and any labels under "date", so
    that ``load_csv`` reproduces the values exactly (floats serialized with
    repr round-trip precision)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if series.labels is not None:
            writer.writerow(["date", "return"])
            for label, value in zip(series.labels, series.values):
                writer.writerow([label, repr(float(value))])
        else:
            writer.writerow(["return"])
            for value in series.values:
                writer.writerow([repr(float(value))])


@dataclass(frozen=True)
class TwoRegimeSpec:
    """Two-regime Gaussian process specification.

    Each step keeps the current regime with probability 1 - switch_prob and
    redraws it from (weight1, 1 - weight1) otherwise, so the marginal
    distribution of every observation is exactly the two-component mixture;
    switch_prob = 1 gives i.i.d. mixture draws, small values give sticky
    regimes and volatility clustering.
    """

    mu1: float = 0.0
    var1: float = 1.0
    mu2: float = 0.0
    var2: float = 1.0
    weight1: float = 0.5
    switch_prob: float = 1.0

    def __post_init__(self):
        if not (self.var1 > 0 and self.var2 > 0):
            raise ValueError("regime variances must be positive")
        if not 0.0 <= self.weight1 <= 1.0:
            raise ValueError("weight1 must lie in [0, 1]")
        if not 0.0 < self.switch_prob <= 1.0:
            raise ValueError("switch_prob must lie in (0, 1]")


def simulate_mixture_process(spec: TwoRegimeSpec, t_len: int, seed: int,
                             name: str | None = None) -> ReturnSeries:
    """Simulate the two-regime process. Deterministic given the seed."""
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    rng = np.random.default_rng(seed)
    resample = rng.random(t_len) < spec.switch_prob
    fresh = (rng.random(t_len) >= spec.weight1).astype(int)  # 1 -> regime 2
    z = rng.standard_normal(t_len)
    resample[0] = True  # the first step always draws from the marginal
    # each step takes the regime drawn at the last resample up to it
    regime = fresh[np.maximum.accumulate(np.where(resample, np.arange(t_len), 0))]
    mu = np.where(regime == 0, spec.mu1, spec.mu2)
    sd = np.where(regime == 0, np.sqrt(spec.var1), np.sqrt(spec.var2))
    return ReturnSeries(mu + sd * z, name=name or f"mixture-sim-{seed}")


def sample_seeds(n: int, lo: int = 0, hi: int = 50000, meta_seed: int = 0) -> list[int]:
    """n distinct integers in [lo, hi], deterministic given meta_seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if lo >= hi:
        raise ValueError("lo must be < hi")
    span = hi - lo + 1
    if n > span:
        raise ValueError(f"cannot draw {n} distinct seeds from [{lo}, {hi}]")
    rng = np.random.default_rng(meta_seed)
    return [int(s) + lo for s in rng.choice(span, size=n, replace=False)]
