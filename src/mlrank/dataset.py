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

  A load reads the file once, one ``\\n``-terminated piece at a time.  The
  lines of a block, about ``_BLOCK_TOKENS`` feature tokens, are split once to
  take off their label lists, and the tokens converted with one ``np.array``
  call per type.  A header gives the shape before the first block, so the
  output arrays are allocated then and each block is scattered into its
  own rows as soon as it is converted: a headed load holds the output
  arrays plus one block.  Without a header the shape is known only at the
  end of the file, so the converted blocks wait for it: the load holds the
  output arrays plus 16 bytes per stored value.  Neither is a multiple of
  the file size.

  A file with any fault never loads; the first fault is named, in this
  order: token faults in file order (a byte that is not UTF-8, a bad label
  list, a bad feature token, a feature index below 1, a feature value that
  is not finite, such as ``nan`` or ``1e400``, a negative label),
  then the instance and label counts, then the label and feature indices
  against ``c`` and ``d`` in file order.

* **Dense CSV**: each row holds ``d`` feature values followed by ``c`` label
  columns, labels in ``{0, 1}`` or ``{-1, +1}`` (the former is remapped).
  A feature value that is not finite names its line, and so does the first
  label cell outside the encoding.

Instances whose label vector is all-positive or all-negative carry no
ranking information; loaders drop them by default and report the count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat

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


def _label_ids(token: str) -> list[int]:
    return [int(t) for t in token.split(",") if t]


def load_sparse(path: str, keep_trivial: bool = False, name: str | None = None) -> MultiLabelDataset:
    """Load the sparse text format.

    Dimensions come from the header when present, otherwise from the maximum
    indices seen.  Out-of-range indices against a header raise
    :class:`DatasetFormatError` with the line number.
    """
    X, Y = _parse(str(path))
    return _drop_trivial(X, Y, name if name is not None else dataset_name(path), keep_trivial)


def dataset_name(path: str) -> str:
    """The name the loaders give the dataset in ``path``: its file name
    without the last extension."""
    base = str(path).rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _parse(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of the sparse file at ``path``, read once.

    Each line holding tokens is kept as ``(line number, body, colon count)``
    until the colons of its block reach ``_BLOCK_TOKENS``; then
    :func:`_block` converts the block.  With a header the output is
    allocated before the first block and each converted block is scattered
    into its rows at once; without one, the blocks wait for the end of the
    file to set the shape.  Faults are raised in the order the module
    docstring states.
    """
    header, out, blocks, block, pending = None, None, [], [], 0
    keep = blocks.append  # where converted blocks go: the queue, or the output
    try:
        for lineno, raw in enumerate(_lines(path), start=1):
            body = raw.split("#", 1)[0]
            if not body or body.isspace():
                continue
            if header is None and not (block or blocks):  # the first body
                header = _parse_header(body.split())
                if header is not None:
                    out = _Output(path, *header)
                    keep = out.add
                    continue
            colons = body.count(":")
            block.append((lineno, body, colons))
            pending += colons
            if pending >= _BLOCK_TOKENS:
                full, block, pending = block, [], 0
                keep(_block(full, path))
    except DatasetFormatError:
        # the pending lines' token faults come before an undecodable byte
        _block(block, path)
        raise
    keep(_block(block, path))
    block = full = None  # free the last lines before a headerless output is allocated
    if out is None:
        n = sum(len(linenos) for linenos, *_ in blocks)
        d = max((int(idx.max()) for _, _, idx, *_ in blocks if idx.size), default=0)
        c = max((int(ids.max()) for *_, ids in blocks if ids.size), default=-1) + 1
        out = _Output(path, n, d, c)
        for b in blocks:
            out.add(b)
    return out.result(header is not None)


class _Output:
    """The ``(n, d)`` features and ``(n, c)`` labels of a load, filled one
    converted block at a time, and the first fault of each kind the blocks
    hold, raised by :meth:`result` in the order the module docstring states.

    ``X`` comes from ``np.zeros`` and ``Y`` from ``np.empty``, and a block
    writes only its own rows, so rows a header declares but the file does
    not hold are never touched.  An array too large to allocate is a fault
    of its own, raised last.
    """

    def __init__(self, path: str, n: int, d: int, c: int):
        self.path, self.n, self.d, self.c = path, n, d, c
        self.rows = 0  # instances added
        self.range_fault = self.int64_fault = self.alloc_fault = None
        try:
            self.X = np.zeros((n, d))
            self.Y = np.empty((n, c))
        except MemoryError:  # a huge header, or ids far beyond the data without one
            self.alloc_fault = ValueError(f"{path}: {n} x {d} features and {n} x {c} labels "
                                          "do not fit in memory")
        except (ValueError, OverflowError) as exc:  # no array has this shape
            self.alloc_fault = ValueError(f"{path}: {exc}")

    def add(self, block: tuple) -> None:
        linenos, counts, idx, vals, label_counts, ids = block
        start, self.rows = self.rows, self.rows + len(counts)
        if self.range_fault is None:
            self.range_fault = _range_fault(self.path, block, self.d, self.c)
        if self.int64_fault is None:
            try:  # an index beyond int64 raises OverflowError
                idx.astype(np.int64, copy=False), ids.astype(np.int64, copy=False)
            except (ValueError, OverflowError) as exc:
                self.int64_fault = ValueError(f"{self.path}: {exc}")
        if (self.range_fault or self.int64_fault or self.alloc_fault
                or self.rows > self.n):
            return  # the load fails; nothing more to fill
        rows = np.arange(start, self.rows)
        self.Y[start:self.rows] = -1.0
        self.X[np.repeat(rows, counts), idx - 1] = vals
        self.Y[np.repeat(rows, label_counts), ids] = 1.0

    def result(self, headed: bool) -> tuple[np.ndarray, np.ndarray]:
        path = self.path
        if self.rows == 0:
            raise DatasetFormatError(path, 0, "no instances found")
        if headed and self.rows != self.n:
            raise DatasetFormatError(path, 0,
                                     f"header declares {self.n} instances, found {self.rows}")
        if self.c == 0:
            raise DatasetFormatError(path, 0, "header declares 0 labels" if headed else
                                     "no labels present and no header to set the label count")
        for fault in (self.range_fault, self.int64_fault, self.alloc_fault):
            if fault is not None:
                raise fault
        return self.X, self.Y


def _range_fault(path: str, block: tuple, d: int, c: int) -> DatasetFormatError | None:
    """The first label index ``>= c`` or feature index ``> d`` of a block,
    labels before features on the same line, or None."""
    linenos, counts, idx, _, label_counts, ids = block
    bad_ids, bad_idx = ids >= c, idx > d
    if not (bad_ids.any() or bad_idx.any()):
        return None
    at_id = np.repeat(linenos, label_counts)[bad_ids]
    at_idx = np.repeat(linenos, counts)[bad_idx]
    if at_id.size and (not at_idx.size or at_id[0] <= at_idx[0]):
        return DatasetFormatError(path, int(at_id[0]),
                                  f"label index {ids[bad_ids][0]} out of range for c={c}")
    return DatasetFormatError(path, int(at_idx[0]),
                              f"feature index {idx[bad_idx][0]} out of range for d={d}")


def _block(lines: list[tuple[int, str, int]], path: str) -> tuple:
    """Line numbers, per-line feature counts, feature indices and values,
    per-line label counts and label ids of a block of ``(line number, body,
    colon count)``.

    The label lists are split off and the feature tokens converted by one
    :func:`_block_arrays` call.  If that fails, the lines are checked one
    token at a time to raise the first token fault.  An index beyond int64
    is no token fault; the block then keeps its indices as Python ints.
    """
    heads = []  # (label list, feature tokens) per line
    for _, body, _ in lines:
        label_s, *feats = body.split(None, 1)
        heads.append(("", body) if ":" in label_s else (label_s, feats[0] if feats else ""))
    try:
        ids = [_label_ids(label_s) for label_s, _ in heads]
        idx, vals = _block_arrays(" ".join(feats for _, feats in heads).split())
        flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64)
        if flat.size and flat.min() < 0:
            raise ValueError("negative label index")
    except (ValueError, OverflowError):
        ids, idx, vals = [], [], []
        for (lineno, _, _), (label_s, feats) in zip(lines, heads):
            try:
                ids.append(_label_ids(label_s))
            except ValueError:
                raise DatasetFormatError(path, lineno, f"bad label list {label_s!r}") from None
            for tok in feats.split():
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx.append(int(idx_s))
                    vals.append(float(val_s))
                except ValueError:
                    raise DatasetFormatError(path, lineno, f"bad feature token {tok!r}") from None
                if idx[-1] < 1:
                    raise DatasetFormatError(path, lineno, f"feature index {idx[-1]} is not 1-based")
                if not math.isfinite(vals[-1]):
                    raise DatasetFormatError(path, lineno, f"feature value {val_s!r} is not finite")
            if any(l < 0 for l in ids[-1]):
                raise DatasetFormatError(path, lineno, "negative label index")
        flat, vals = list(chain.from_iterable(ids)), np.array(vals)
        try:
            idx, flat = np.array(idx, dtype=np.int64), np.array(flat, dtype=np.int64)
        except OverflowError:
            idx, flat = np.array(idx, dtype=object), np.array(flat, dtype=object)
    return (np.array([lineno for lineno, _, _ in lines]), [count for _, _, count in lines], idx, vals,
            [len(line_ids) for line_ids in ids], flat)


def _block_arrays(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """1-based indices and values of ``idx:val`` feature tokens.

    One join and one split give the sides of all tokens.  Twice as many sides
    as tokens and a colon in every token mean one colon per token.  The sides
    then go through one ``np.array`` call per type, which converts like
    ``int()`` and ``float()`` and rejects an empty side.  An index below 1
    or a value that is not finite is a fault too.
    """
    sides = ":".join(tokens).split(":") if tokens else []
    if (len(sides) != 2 * len(tokens)
            or not all(map(operator.contains, tokens, repeat(":")))):
        raise ValueError("malformed feature token")
    idx = np.array(sides[0::2], dtype=np.int64)
    if idx.size and idx.min() < 1:
        raise ValueError("feature index below 1")
    vals = np.array(sides[1::2], dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("feature value not finite")
    return idx, vals


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
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        lineno, field = _csv_field(str(path), *bad[0])
        raise DatasetFormatError(str(path), lineno, f"feature value {field!r} is not finite")
    values = np.unique(Y)
    if np.all(np.isin(values, (0.0, 1.0))):
        Y = 2.0 * Y - 1.0
    elif not np.all(np.isin(values, (-1.0, 1.0))):
        # the first label cell other than 1 sets the encoding; the first
        # cell outside it is named
        zero = Y.flat[np.argmax(Y != 1.0)] == 0.0
        row, col = np.argwhere(~np.isin(Y, (0.0 if zero else -1.0, 1.0)))[0]
        lineno, field = _csv_field(str(path), row, X.shape[1] + col)
        raise DatasetFormatError(str(path), lineno,
                                 f"label columns must lie in {{0,1}} or {{-1,+1}}, found {field!r}")
    return _drop_trivial(X, Y, name if name is not None else dataset_name(path), keep_trivial)


def _csv_field(path: str, row: int, col: int) -> tuple[int, str]:
    """Line number and text of field ``col`` of data row ``row``, counting
    rows as ``np.loadtxt`` does: text after ``#`` and blank lines skipped."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        rows = (pair for pair in enumerate(fh, start=1) if pair[1].split("#", 1)[0].strip())
        lineno, line = next(islice(rows, row, None))
    return lineno, line.split("#", 1)[0].split(",")[col].strip()


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


def standardize_fit(features: np.ndarray) -> StandardizationParams:
    """Population mean/std per feature column; near-constant columns get std 1.

    Raises ``ValueError`` naming the first (1-based) column whose mean or
    std is not finite, as when its values' sum or squares overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
        std = features.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"feature column {j + 1}: standardization statistics are not finite "
                         f"(mean {mean[j]:.6g}, std {std[j]:.6g})")
    std = np.where(std < 1e-12, 1.0, std)
    return StandardizationParams(mean, std)


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
