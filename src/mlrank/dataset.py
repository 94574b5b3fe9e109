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
  take off their label lists, and numpy's C text reader converts all their
  feature tokens in one call, each one index and one value as it reads an
  int64 and a float64 (no underscores, no non-ASCII digits).  Where it
  refuses one, a scan that reads each token with the same call names the
  first faulty line.  A header gives the shape before the first block, so
  the output arrays are allocated then and each block is scattered into
  its own rows as soon as it is converted: a headed load holds the output
  arrays plus one block.  Without a header the shape is known only at the
  end of the file, so the converted blocks wait for it: the load holds the
  output arrays plus 16 bytes per stored value.  Neither is a multiple of
  the file size.

  A file with any fault never loads.  The first faulty line is named; a
  line's faults are, in order: a byte that is not UTF-8, a bad label list
  (named as a CSV row when it holds comma-separated numbers), a negative
  label, a label ``>= c``, then per feature token bad syntax, an index
  below 1, a value that is not finite (``nan``, ``1e400``) and an index
  ``> d``.  Without a header ``c`` and ``d`` are unbounded, but a label
  beyond int64 is a fault.  Then come the counts, and last an allocation.

* **Dense CSV**: each row holds ``d`` feature values followed by ``c`` label
  columns, labels in ``{0, 1}`` or ``{-1, +1}`` (the former is remapped).
  The first row numpy's reader refuses names its line, and so do a byte
  that is not UTF-8 (in a row or a comment), a feature value that is not
  finite and the first label cell outside the encoding.

Instances whose label vector is all-positive or all-negative carry no
ranking information; loaders drop them by default and report the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

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
    # A header is exactly three nonnegative integers; a data line's tokens
    # hold ':' or ',', which int() rejects, or are not three.
    try:
        n, d, c = map(int, tokens)
    except ValueError:
        return None
    return (n, d, c) if min(n, d, c) >= 0 else None


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
                raise _not_utf8(path, lineno + len(head.splitlines()), exc) from None
            lineno += len(lines)
            yield from lines


def _not_utf8(path: str, lineno: int, exc: UnicodeDecodeError) -> DatasetFormatError:
    bad = " ".join(f"0x{b:02x}" for b in exc.object[exc.start:exc.end])
    return DatasetFormatError(path, lineno, f"not UTF-8 text: cannot decode {bad} ({exc.reason})")


def load_sparse(path: str, keep_trivial: bool = False) -> MultiLabelDataset:
    """Load the sparse text format.

    Dimensions come from the header when present, otherwise from the maximum
    indices seen.  Out-of-range indices against a header raise
    :class:`DatasetFormatError` with the line number.
    """
    X, Y = _parse(str(path))
    return _drop_trivial(X, Y, dataset_name(path), keep_trivial)


def dataset_name(path: str) -> str:
    """The name the loaders give the dataset in ``path``: its file name
    without the last extension."""
    base = str(path).rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _parse(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of the sparse file at ``path``, read once.

    Each line holding tokens is kept as ``(line number, body, colon count)``
    until the colons of its block reach ``_BLOCK_TOKENS``; then
    :func:`_block` converts the block, or raises its first faulty line.
    With a header the output is allocated before the first block and each
    converted block is scattered into its rows at once; without one, the
    blocks wait for the end of the file to set the shape.
    """
    header, out, blocks, block, pending = None, None, [], [], 0
    d = c = math.inf  # the header's, once read
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
                    keep, (_, d, c) = out.add, header
                    continue
            colons = body.count(":")
            block.append((lineno, body, colons))
            pending += colons
            if pending >= _BLOCK_TOKENS:
                full, block, pending = block, [], 0
                keep(_block(full, path, d, c))
    except DatasetFormatError:
        # the pending lines' faults come before an undecodable byte
        _block(block, path, d, c)
        raise
    keep(_block(block, path, d, c))
    block = full = None  # free the last lines before a headerless output is allocated
    if out is None:
        n = sum(len(counts) for counts, *_ in blocks)
        d = max((int(idx.max()) for _, idx, *_ in blocks if idx.size), default=0)
        c = max((int(ids.max()) for *_, ids in blocks if ids.size), default=-1) + 1
        out = _Output(path, n, d, c)
        for b in blocks:
            out.add(b)
    return out.result(header is not None)


class _Output:
    """The ``(n, d)`` features and ``(n, c)`` labels of a load, filled one
    converted block at a time.

    ``X`` comes from ``np.zeros`` and ``Y`` from ``np.empty``, and a block
    writes only its own rows, so rows a header declares but the file does
    not hold are never touched.  An array too large to allocate is a fault
    of its own, raised by :meth:`result` after the counts.
    """

    def __init__(self, path: str, n: int, d: int, c: int):
        self.path, self.n, self.c = path, n, c
        self.rows, self.alloc_fault = 0, None  # instances added, and a failed allocation
        try:
            self.X = np.zeros((n, d))
            self.Y = np.empty((n, c))
        except (MemoryError, ValueError, OverflowError):  # a huge header, or ids far off
            self.alloc_fault = ValueError(f"{path}: {n} x {d} features and {n} x {c} labels "
                                          "do not fit in memory")

    def add(self, block: tuple) -> None:
        counts, idx, vals, label_counts, ids = block
        start, self.rows = self.rows, self.rows + len(counts)
        if self.alloc_fault or self.rows > self.n:
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
        if self.alloc_fault is not None:
            raise self.alloc_fault
        return self.X, self.Y


def _block(lines: list[tuple[int, str, int]], path: str, d: float, c: float) -> tuple:
    """Per-line feature counts, feature indices and values, per-line label
    counts and label ids of a block of ``(line number, body, colon count)``.

    The label lists are split off, and :func:`_features` converts all
    feature tokens in one call.  If a conversion fails, or if a value is out
    of range for the counts ``d`` and ``c``, a scan of the lines raises the
    first faulty one, as :func:`_line_fault` finds it.
    """
    heads = []  # (label list, feature tokens) per line
    for _, body, _ in lines:
        label_s, *feats = body.split(None, 1)
        heads.append(("", body) if ":" in label_s else (label_s, feats[0] if feats else ""))
    try:
        ids = [[int(t) for t in label_s.split(",") if t] for label_s, _ in heads]
        flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64)
        idx, vals = _features(" ".join(feats for _, feats in heads).split())
        if (flat.size and (flat.min() < 0 or flat.max() >= c)
                or idx.size and (idx.min() < 1 or idx.max() > d)
                or not np.isfinite(vals).all()):
            raise ValueError("a line of the block is faulty")
    except (ValueError, OverflowError):
        for (lineno, _, _), (label_s, feats) in zip(lines, heads):
            fault = _line_fault(label_s, feats, d, c)
            if fault is not None:
                raise DatasetFormatError(path, lineno, fault) from None
        raise  # unreachable: the conversions fail only on a faulty line
    return [count for _, _, count in lines], idx, vals, [len(line_ids) for line_ids in ids], flat


# One feature token as numpy's C text reader reads it: index, then value.
_TOKEN = np.dtype([("i", np.int64), ("v", np.float64)])


def _features(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The indices and values of feature tokens ``idx:val``, as numpy's C
    text reader reads an int64 and a float64, in one call.  Raises
    ``ValueError`` where it refuses a token: one colon too many or few,
    ``1.5:0``, ``1_0:2``, ``99999999999999999999:1``.  No token, no call:
    the reader warns on empty input."""
    pairs = (np.loadtxt(tokens, delimiter=":", dtype=_TOKEN, ndmin=1) if tokens
             else np.empty(0, _TOKEN))
    return pairs["i"], pairs["v"]


def _line_fault(label_s: str, feats: str, d: float, c: float) -> str | None:
    """The first fault of a line, label list ``label_s`` and feature tokens
    ``feats``, in the order the module docstring states, or None.  Each
    feature token is read by :func:`_features`, as its block was."""
    try:
        ids = [int(t) for t in label_s.split(",") if t]
    except ValueError:
        try:  # two or more comma-separated numbers: a CSV row
            csv = len([float(t) for t in label_s.split(",")]) > 1
        except ValueError:
            csv = False
        return f"bad label list {label_s!r}" + (
            ": a CSV row? a CSV file is read with its label count (--labels)" if csv else "")
    if any(label < 0 for label in ids):
        return "negative label index"
    for label in ids:
        if label >= c:
            return f"label index {label} out of range for c={c}"
        if label >= 2 ** 63:  # beyond int64
            return f"label index {label} does not fit in 64 bits"
    for tok in feats.split():
        try:
            (idx,), (val,) = _features([tok])
        except ValueError:
            return f"bad feature token {tok!r}"
        if idx < 1:
            return f"feature index {idx} is not 1-based"
        if not math.isfinite(val):
            return f"feature value {tok.partition(':')[2]!r} is not finite"
        if idx > d:
            return f"feature index {idx} out of range for d={d}"
    return None


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


def load_csv(path: str, label_count: int, keep_trivial: bool = False) -> MultiLabelDataset:
    """Load a dense CSV whose last ``label_count`` columns are labels."""
    if label_count is None or label_count < 1:
        raise ValueError(f"a CSV dataset needs a positive label count, not {label_count!r}")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if next(_csv_rows(fh), None) is None:  # the reader warns on no data
            raise DatasetFormatError(str(path), 0, "no instances found")
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise _csv_fault(str(path), exc) from None
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
    return _drop_trivial(X, Y, dataset_name(path), keep_trivial)


def _csv_rows(fh):
    """``(line number, line)`` of each data row of the text file ``fh``, as
    numpy's reader counts rows: a line is a row unless nothing is left of it
    before ``#`` and its line break.  ``fh`` is read with
    ``errors="surrogateescape"``, so a byte that is not UTF-8, in a row or a
    comment, raises :class:`DatasetFormatError` naming its line."""
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(fh.name, lineno, exc) from None
        if line.split("#", 1)[0].rstrip("\n"):
            yield lineno, line


def _csv_fault(path: str, exc: ValueError) -> DatasetFormatError:
    """The first row the reader refuses, read alone, or whose cell count is
    not the first row's, named by its line; or else the reader's error
    ``exc`` on the whole file.  A byte that is not UTF-8 before that row
    raises from :func:`_csv_rows`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        width = None
        for lineno, line in _csv_rows(fh):
            try:
                cells = np.loadtxt([line], delimiter=",", ndmin=1).size
            except ValueError as err:  # numpy names the row of this one-line read
                return DatasetFormatError(path, lineno, "not numeric CSV: "
                                          + str(err).replace(" at row 0,", " at"))
            if width is None:
                width = cells
            elif cells != width:
                return DatasetFormatError(path, lineno,
                                          f"the first row has {width} cells, this one {cells}")
    return DatasetFormatError(path, 0, f"not numeric CSV: {exc}")


def _csv_field(path: str, row: int, col: int) -> tuple[int, str]:
    """Line number and text of field ``col`` of data row ``row``, counting
    rows as :func:`_csv_rows` does."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno, line = next(islice(_csv_rows(fh), row, None))
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

    The std is ``np.std``'s over axis 0, without its whole deviation matrix:
    see :func:`_squared_deviation_sums`.  Raises ``ValueError`` naming the
    first (1-based) column whose mean or std is not finite, as when its
    values' sum or squares overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
        # numpy sums one column pairwise, and no row or one needs no blocks
        std = (features.std(axis=0) if min(features.shape) <= 1
               else np.sqrt(_squared_deviation_sums(features, mean) / len(features)))
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"feature column {j + 1}: standardization statistics are not finite "
                         f"(mean {mean[j]:.6g}, std {std[j]:.6g})")
    std = np.where(std < 1e-12, 1.0, std)
    return StandardizationParams(mean, std)


def _squared_deviation_sums(X: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Column sums of ``(X - mean) ** 2``, ``np.std``'s bit for bit, squared
    one block of about ``_BLOCK_TOKENS`` values at a time.

    Over two or more columns of a row-major ``X``, as ``prepare_data``
    passes, numpy's axis-0 sum adds one row after another.  Each block's
    buffer holds the running sum as row 0, so its ``sum(axis=0)`` continues
    the same additions.
    """
    rows = max(1, _BLOCK_TOKENS // X.shape[1])
    buf, total = np.empty((min(len(X), rows) + 1, X.shape[1])), None
    for start in range(0, len(X), rows):
        part = X[start:start + rows]
        block = np.subtract(part, mean, out=buf[1:1 + len(part)])
        block *= block
        if total is not None:
            buf[0] = total
        total = buf[int(total is None):1 + len(block)].sum(axis=0)
    return total


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
