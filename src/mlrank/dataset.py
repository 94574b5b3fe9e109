"""Multi-label dataset container, file formats, and split utilities.

Two on-disk formats are supported:

* **Sparse text** (one instance per line)::

      # optional comment lines
      n d c                 <- optional header: counts, feature dim, label dim
      0,2 1:0.5 3:-1.0      <- positive label ids, then 1-based feature:value
      3:2.25                <- empty positive set is allowed

  Label ids are 0-based and comma-separated; omitted features are zero.

  Lines end where ``str.splitlines`` ends them, so ``\\r\\n``, ``\\r`` and
  the other Unicode line breaks count as well as ``\\n``.  Files must be
  UTF-8; a byte that is not names its line in a :class:`DatasetFormatError`.

  The file is streamed: it is read one ``\\n``-terminated piece at a time,
  and each line is split once to take off its label list.  The feature
  tokens of a block of lines, about ``_BLOCK_TOKENS`` of them, are converted
  with one ``np.array`` call per type (indices, then values).  Once the
  shape is known, each block is scattered into its own rows.  Memory is
  therefore about the output arrays plus 16 bytes per stored value plus one
  block, not a multiple of the file size.  A file with any fault never
  loads: the line-by-line check ``_raise_first_fault`` then reads the file
  again only to name the first faulty line.

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


# Feature tokens converted together: a block is converted once its lines
# hold this many.  Loading a 17 MB file of 2407 lines of 294 features took
# a process from 28.6 MB to a peak of 45-46 MB at 1024 or 4096 tokens, 49 MB
# at 16k, 56 MB at 64k and 108 MB at 256k.
_BLOCK_TOKENS = 4096


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


def _lines(path: str):
    """The lines of the file at ``path``, as ``str.splitlines`` of its UTF-8
    text gives them, read one ``\\n``-terminated piece at a time.

    Every line break lies inside one piece: ``\\r\\n``, the one break of two
    characters, ends with the ``\\n`` that ends its piece, and the byte
    ``\\n`` occurs in no multi-byte UTF-8 character.  So splitting each piece
    gives the lines of the whole text.  A byte that is not UTF-8 raises
    :class:`DatasetFormatError` naming the line that holds it.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for piece in fh:
            try:
                lines = piece.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # the bad byte's line is the last of the text before it plus
                # one more character
                head = piece[:exc.start].decode("utf-8") + "?"
                bad = " ".join(f"0x{b:02x}" for b in piece[exc.start:exc.end])
                raise DatasetFormatError(
                    path, lineno + len(head.splitlines()),
                    f"not UTF-8 text: cannot decode {bad} ({exc.reason})") from None
            lineno += len(lines)
            yield from lines


def _bodies(lines):
    """``(line number, text before any '#')`` of the lines holding tokens."""
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        if body and not body.isspace():
            yield lineno, body


def _header_and_rows(lines):
    """The header (or None) and an iterator of ``(line number, body)`` over
    the instance lines; comments and blank lines are skipped."""
    rows = _bodies(lines)
    first = next(rows, None)
    header = None if first is None else _parse_header(first[1].split())
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
    path = str(path)
    try:
        X, Y = _parse_blocks(_lines(path))
    except (ValueError, OverflowError) as exc:
        _raise_first_fault(_lines(path), path)
        # no format fault: an index beyond int64, or dimensions too large
        raise ValueError(f"{path}: {exc}") from exc
    return _drop_trivial(X, Y, name if name is not None else dataset_name(path), keep_trivial)


def dataset_name(path: str) -> str:
    """The name the loaders give the dataset in ``path``: its file name
    without the last extension."""
    base = str(path).rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _parse_blocks(lines) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a sparse file; ValueError on any fault.

    Each line is split once, to take off its label list.  The rest of the
    lines of a block, until their feature tokens reach ``_BLOCK_TOKENS``, is
    converted by :func:`_block_arrays`.  A line's token count is its colon
    count, which is exact because ``_block_arrays`` proves one colon per
    token.  Once the shape is known, each block is scattered into its own
    rows.
    """
    header, bodies = _header_and_rows(lines)
    blocks = []
    block: list[tuple[list[int], str, int]] = []
    pending = 0
    for _, body in bodies:
        parts = body.split(None, 1)
        ids: list[int] = []
        if ":" not in parts[0]:
            ids = _label_ids(parts[0])
            body = parts[1] if len(parts) == 2 else ""
        block.append((ids, body, body.count(":")))
        pending += block[-1][2]
        if pending >= _BLOCK_TOKENS:
            blocks.append(_block(block))
            block, pending = [], 0
    blocks.append(_block(block))

    n = sum(len(counts) for counts, *_ in blocks)
    idx_max = max((int(idx.max()) for _, idx, *_ in blocks if idx.size), default=0)
    label_ids = [ids for *_, ids in blocks if ids.size]
    if header is not None:
        n_decl, d, c = header
    else:
        n_decl, d = n, idx_max
        c = max((int(ids.max()) for ids in label_ids), default=-1) + 1
    if (n == 0 or n_decl != n or c <= 0 or idx_max > d
            or any(ids.min() < 0 or ids.max() >= c for ids in label_ids)):
        raise ValueError("instance count or index out of range")
    try:
        X = np.zeros((n, d))
        Y = np.full((n, c), -1.0)
    except MemoryError:
        # ids far beyond the data in a file without a header
        raise ValueError(f"{n} x {d} features and {n} x {c} labels "
                         "do not fit in memory") from None
    start = 0
    for counts, idx, vals, label_counts, ids in blocks:
        rows = np.arange(start, start + len(counts))
        X[np.repeat(rows, counts), idx - 1] = vals
        Y[np.repeat(rows, label_counts), ids] = 1.0
        start += len(counts)
    return X, Y


def _block(lines: list[tuple[list[int], str, int]]) -> tuple:
    """Per-line feature counts, feature indices and values, per-line label
    counts and label ids of a block of ``(label ids, features, count)``."""
    idx, vals = _block_arrays(" ".join(feats for _, feats, _ in lines).split())
    return ([count for _, _, count in lines], idx, vals, [len(ids) for ids, _, _ in lines],
            np.fromiter(chain.from_iterable(ids for ids, _, _ in lines), dtype=np.int64))


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


def _raise_first_fault(lines, path: str) -> None:
    """Check ``lines`` one at a time and raise the first fault found.

    Token faults come first, in file order: a byte that is not UTF-8, a bad
    label list, a bad feature token, a feature index below 1, then a
    negative label on the same line.  Then the instance count and the label
    count, and last the label and feature indices against ``c`` and ``d``,
    again in file order.  Returns when there is no fault.
    """
    header, bodies = _header_and_rows(lines)
    rows: list[tuple[list[int], list[int], int]] = []
    for lineno, body in bodies:
        tokens = body.split()
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
    significant digits.  A row with no relevant label and no nonzero feature
    is written as ``1:0``, since a blank line is not an instance."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{data.n} {data.d} {data.c}\n")
        for i in range(data.n):
            labels = ",".join(str(j) for j in np.flatnonzero(data.labels[i] > 0))
            feats = " ".join(f"{j + 1}:{data.features[i, j]:.17g}"
                             for j in np.flatnonzero(data.features[i] != 0.0))
            fh.write(((labels + " " + feats).strip() or "1:0") + "\n")


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
