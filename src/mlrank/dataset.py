"""Multi-label dataset container, file formats, and split utilities.

Two on-disk formats are supported:

* **Sparse text** (one instance per line)::

      # optional comment lines
      n d c                 <- optional header: counts, feature dim, label dim
      0,2 1:0.5 3:-1.0      <- positive label ids, then 1-based feature:value
      3:2.25                <- empty positive set is allowed

  Label ids are 0-based and comma-separated; omitted features are zero.

  The label list of each line is read on its own.  The feature tokens of
  each block of ``_BLOCK_LINES`` lines are joined, split once and converted
  with one ``np.array`` call per type (indices, then values), and all values
  are placed with one scatter.  Blocks keep the temporary strings small.  A
  file with any fault never loads: the line-by-line check
  ``_raise_first_fault`` then walks the file only to name the first faulty
  line in a :class:`DatasetFormatError`.

* **Dense CSV**: each row holds ``d`` feature values followed by ``c`` label
  columns, labels in ``{0, 1}`` or ``{-1, +1}`` (the former is remapped).

Instances whose label vector is all-positive or all-negative carry no
ranking information; loaders drop them by default and report the count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from .losses import nontrivial_mask


# Lines whose feature tokens are converted together.  One conversion over a
# whole 17 MB file more than doubles the loader's peak memory.
_BLOCK_LINES = 256


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass
class MultiLabelDataset:
    """Dense features ``(n, d)`` and labels ``(n, c)`` over ``{-1, +1}``.

    ``dropped_trivial`` records how many all-positive / all-negative
    instances a loader removed, so filtered results stay auditable.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = "unnamed"
    dropped_trivial: int = 0

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be two-dimensional")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"row count mismatch: {self.features.shape[0]} feature rows, "
                f"{self.labels.shape[0]} label rows")
        if self.labels.size and not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must take values in {-1, +1}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def c(self) -> int:
        return self.labels.shape[1]

    def subset(self, rows) -> "MultiLabelDataset":
        return MultiLabelDataset(self.features[rows], self.labels[rows], self.name,
                                 dropped_trivial=0)


def _drop_trivial(X: np.ndarray, Y: np.ndarray, name: str, keep: bool) -> MultiLabelDataset:
    rows = nontrivial_mask(Y)
    if keep or rows.all():
        return MultiLabelDataset(X, Y, name)
    return MultiLabelDataset(X[rows], Y[rows], name, dropped_trivial=int((~rows).sum()))


def _parse_header(tokens: list[str]) -> tuple[int, int, int] | None:
    # A header is exactly three bare integers; data lines have ':' or ','
    # in their tokens or fewer/more fields that fail integer parsing.
    if len(tokens) != 3:
        return None
    try:
        n, d, c = (int(t) for t in tokens)
    except ValueError:
        return None
    if any(":" in t or "," in t for t in tokens) or min(n, d, c) < 0:
        return None
    return n, d, c


def _token_lines(lines: list[str]):
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _header_and_rows(lines: list[str]):
    """The header (or None) and an iterator of ``(line number, tokens)`` over
    the instance lines; comments and blank lines are skipped."""
    rows = _token_lines(lines)
    first = next(rows, None)
    header = None if first is None else _parse_header(first[1])
    if first is not None and header is None:
        rows = chain([first], rows)
    return header, rows


def _label_ids(token: str) -> list[int]:
    return [int(t) for t in token.split(",") if t]


def load_sparse(path: str, keep_trivial: bool = False, name: str | None = None) -> MultiLabelDataset:
    """Load the sparse text format.

    Dimensions come from the header when present, otherwise from the maximum
    indices seen.  Out-of-range indices against a header raise
    :class:`DatasetFormatError` with the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _load_sparse_text(text, str(path), keep_trivial,
                             name if name is not None else dataset_name(path))


def dataset_name(path: str) -> str:
    """The name the loaders give the dataset in ``path``: its file name
    without the last extension."""
    base = str(path).rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _load_sparse_text(text: str, path: str, keep_trivial: bool, name: str) -> MultiLabelDataset:
    lines = text.splitlines()
    try:
        X, Y = _parse_blocks(lines)
    except (ValueError, OverflowError) as exc:
        _raise_first_fault(lines, path)
        # no format fault: an index beyond int64, or dimensions too large
        raise ValueError(f"{path}: {exc}") from exc
    return _drop_trivial(X, Y, name, keep_trivial)


def _parse_blocks(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a sparse file; ValueError on any fault.

    Label lists are read line by line; the feature tokens of each
    ``_BLOCK_LINES`` lines are converted together by :func:`_block_arrays`,
    and all values are placed with one scatter.
    """
    header, rows = _header_and_rows(lines)
    labels: list[list[int]] = []
    counts: list[int] = []
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    block: list[str] = []
    for _, tokens in rows:
        ids: list[int] = []
        if ":" not in tokens[0]:
            ids = _label_ids(tokens[0])
            del tokens[0]
        labels.append(ids)
        counts.append(len(tokens))
        block += tokens
        if len(counts) % _BLOCK_LINES == 0:
            blocks.append(_block_arrays(block))
            block = []
    blocks.append(_block_arrays(block))

    n = len(counts)
    idx = np.concatenate([b[0] for b in blocks])
    vals = np.concatenate([b[1] for b in blocks])
    label_ids = np.fromiter(chain.from_iterable(labels), dtype=np.int64)
    if header is not None:
        n_decl, d, c = header
    else:
        n_decl = n
        d = int(idx.max()) if idx.size else 0
        c = int(label_ids.max()) + 1 if label_ids.size else 0
    if (n == 0 or n_decl != n or c <= 0 or (label_ids < 0).any() or (label_ids >= c).any()
            or (idx.size and idx.max() > d)):
        raise ValueError("instance count or index out of range")
    X = np.zeros((n, d))
    X[np.repeat(np.arange(n), counts), idx - 1] = vals
    Y = np.full((n, c), -1.0)
    Y[np.repeat(np.arange(n), [len(ids) for ids in labels]), label_ids] = 1.0
    return X, Y


def _block_arrays(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """1-based indices and values of ``idx:val`` feature tokens.

    One join and one split give the sides of all tokens.  Twice as many sides
    as tokens and a colon in every token mean one colon per token.  The sides
    then go through one ``np.array`` call per type, which converts like
    ``int()`` and ``float()`` and rejects an empty side.
    """
    sides = ":".join(tokens).split(":") if tokens else []
    if (len(sides) != 2 * len(tokens)
            or not all(map(operator.contains, tokens, repeat(":")))):
        raise ValueError("malformed feature token")
    idx = np.array(sides[0::2], dtype=np.int64)
    if idx.size and idx.min() < 1:
        raise ValueError("feature index below 1")
    return idx, np.array(sides[1::2], dtype=np.float64)


def _raise_first_fault(lines: list[str], path: str) -> None:
    """Check ``lines`` one at a time and raise the first fault found.

    Token faults come first, in file order: a bad label list, a bad feature
    token, a feature index below 1, then a negative label on the same line.
    Then the instance count and the label count, and last the label and
    feature indices against ``c`` and ``d``, again in file order.  Returns
    when there is no fault.
    """
    header, lines_iter = _header_and_rows(lines)
    rows: list[tuple[list[int], list[int], int]] = []
    for lineno, tokens in lines_iter:
        label_ids: list[int] = []
        feat_tokens = tokens
        if ":" not in tokens[0]:
            try:
                label_ids = _label_ids(tokens[0])
            except ValueError:
                raise DatasetFormatError(path, lineno, f"bad label list {tokens[0]!r}")
            feat_tokens = tokens[1:]
        feats: list[int] = []
        for tok in feat_tokens:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise DatasetFormatError(path, lineno, f"bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                float(val_s)
            except ValueError:
                raise DatasetFormatError(path, lineno, f"bad feature token {tok!r}")
            if idx < 1:
                raise DatasetFormatError(path, lineno, f"feature index {idx} is not 1-based")
            feats.append(idx)
        if any(l < 0 for l in label_ids):
            raise DatasetFormatError(path, lineno, "negative label index")
        rows.append((label_ids, feats, lineno))

    if not rows:
        raise DatasetFormatError(path, 0, "no instances found")
    if header is not None:
        n_decl, d, c = header
        if n_decl != len(rows):
            raise DatasetFormatError(path, 0, f"header declares {n_decl} instances, found {len(rows)}")
    else:
        d = max((idx for _, feats, _ in rows for idx in feats), default=0)
        c = max((l for ids, _, _ in rows for l in ids), default=-1) + 1
    if c == 0:
        raise DatasetFormatError(path, 0, "no labels present and no header to set the label count")
    for label_ids, feats, lineno in rows:
        for l in label_ids:
            if l >= c:
                raise DatasetFormatError(path, lineno, f"label index {l} out of range for c={c}")
        for idx in feats:
            if idx > d:
                raise DatasetFormatError(path, lineno, f"feature index {idx} out of range for d={d}")


def save_sparse(data: MultiLabelDataset, path: str) -> None:
    """Write the sparse text format with its header; feature values use 17
    significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{data.n} {data.d} {data.c}\n")
        for i in range(data.n):
            labels = ",".join(str(j) for j in np.flatnonzero(data.labels[i] > 0))
            feats = " ".join(f"{j + 1}:{data.features[i, j]:.17g}"
                             for j in np.flatnonzero(data.features[i] != 0.0))
            fh.write((labels + " " + feats).strip() + "\n")


def load_csv(path: str, label_count: int, keep_trivial: bool = False,
             name: str | None = None) -> MultiLabelDataset:
    """Load a dense CSV whose last ``label_count`` columns are labels."""
    if label_count is None or label_count < 1:
        raise ValueError(f"a CSV dataset needs a positive label count, not {label_count!r}")
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(str(path), 0, f"not numeric CSV: {exc}")
    if table.shape[1] <= label_count:
        raise DatasetFormatError(str(path), 0,
                                 f"{table.shape[1]} columns cannot hold {label_count} labels plus features")
    X = table[:, :-label_count]
    Y = table[:, -label_count:]
    values = np.unique(Y)
    if np.all(np.isin(values, (0.0, 1.0))):
        Y = 2.0 * Y - 1.0
    elif not np.all(np.isin(values, (-1.0, 1.0))):
        raise DatasetFormatError(str(path), 0,
                                 f"label columns must lie in {{0,1}} or {{-1,+1}}, found {values}")
    return _drop_trivial(X, Y, name if name is not None else dataset_name(path), keep_trivial)


def save_csv(data: MultiLabelDataset, path: str) -> None:
    """Write the dense CSV format, labels as ``{-1, +1}`` in the last columns."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(data.n):
            cells = [f"{v:.17g}" for v in data.features[i]]
            cells += [f"{int(v):d}" for v in data.labels[i]]
            fh.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature centering and scaling statistics."""

    mean: np.ndarray
    std: np.ndarray


def standardize_fit(data: MultiLabelDataset) -> StandardizationParams:
    """Population mean/std per feature; near-constant columns get std 1."""
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return StandardizationParams(mean, std)


def standardize_apply(data: MultiLabelDataset, params: StandardizationParams) -> MultiLabelDataset:
    X = (data.features - params.mean) / params.std
    return replace(data, features=X)


def append_bias(data: MultiLabelDataset) -> MultiLabelDataset:
    """Append a constant 1 feature so linear models carry a per-label offset."""
    X = np.hstack([data.features, np.ones((data.n, 1))])
    return replace(data, features=X)


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """Assign each of ``n`` instances to one of ``k`` folds.

    A seeded uniform permutation is dealt round-robin, so fold sizes differ
    by at most one and the assignment is reproducible.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % k
    return fold_of


def synthetic_linear(n: int, d: int, c: int, seed: int, noise: float = 0.0,
                     name: str = "synthetic") -> MultiLabelDataset:
    """Draw a linearly-scored multi-label dataset with nontrivial rows.

    Scores come from a random Gaussian weight matrix; labels are score signs,
    optionally flipped with probability ``noise``.  Rows that come out
    all-positive or all-negative are redrawn, so a perfect linear ranker
    exists when ``noise`` is zero.
    """
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((d, c))
    X = np.empty((0, d))
    Y = np.empty((0, c))
    while X.shape[0] < n:
        batch = max(n - X.shape[0], 16)
        Xb = rng.standard_normal((batch, d))
        S = Xb @ W
        Yb = np.where(S >= 0.0, 1.0, -1.0)
        if noise > 0.0:
            flip = rng.random(Yb.shape) < noise
            Yb = np.where(flip, -Yb, Yb)
        ok = nontrivial_mask(Yb)
        X = np.vstack([X, Xb[ok]])
        Y = np.vstack([Y, Yb[ok]])
    return MultiLabelDataset(X[:n], Y[:n], name)
