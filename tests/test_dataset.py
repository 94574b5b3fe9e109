"""Sparse/CSV loaders, splits, preprocessing, synthetic generator."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrank import dataset
from mlrank.dataset import (DatasetFormatError, MultiLabelDataset, _drop_trivial,
                            _parse_header, kfold_split, load_csv, load_sparse, save_csv,
                            save_sparse, synthetic_linear)
from mlrank.trainer import prepare_data


def write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# sparse format
# ---------------------------------------------------------------------------


def test_sparse_line_example(tmp_path):
    path = write(tmp_path, "1 3 4\n0,2 1:0.5 3:-1.0\n")
    data = load_sparse(path)
    assert (data.n, data.d, data.c) == (1, 3, 4)
    np.testing.assert_array_equal(data.labels[0], [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(data.features[0], [0.5, 0.0, -1.0])


def test_sparse_without_header_infers_shape(tmp_path):
    path = write(tmp_path, "# comment line\n0 2:1.5\n1 1:2.0 3:0.5\n")
    data = load_sparse(path)
    assert (data.n, data.d, data.c) == (2, 3, 2)
    np.testing.assert_array_equal(data.features[1], [2.0, 0.0, 0.5])


def test_sparse_empty_label_list_is_trivial(tmp_path):
    # a line may start straight at the feature tokens (no positive labels)
    path = write(tmp_path, "2 2 2\n0 1:1.0\n1:2.0 2:3.0\n")
    data = load_sparse(path, keep_trivial=True)
    assert data.n == 2
    np.testing.assert_array_equal(data.labels[1], [-1.0, -1.0])
    dropped = load_sparse(path)
    assert dropped.n == 1 and dropped.dropped_trivial == 1


def test_sparse_drops_all_positive_rows_too(tmp_path):
    path = write(tmp_path, "0,1 1:1.0\n0 1:2.0\n")
    data = load_sparse(path)
    assert data.n == 1 and data.dropped_trivial == 1


def test_sparse_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    original = synthetic_linear(25, 6, 3, seed=4)
    path = str(tmp_path / "rt.txt")
    save_sparse(original, path)
    back = load_sparse(path)
    np.testing.assert_array_equal(back.labels, original.labels)
    np.testing.assert_allclose(back.features, original.features, rtol=0, atol=0)


def test_sparse_roundtrip_of_an_empty_row(tmp_path):
    # no relevant label and no nonzero feature: the row must not become a
    # blank line, which the loader does not count as an instance
    original = MultiLabelDataset(np.array([[0.0, 0.0], [1.0, 2.0]]),
                                 np.array([[-1.0, -1.0], [1.0, -1.0]]), "empty-row")
    path = str(tmp_path / "rt.txt")
    save_sparse(original, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "2 2 2\n1:0\n0 1:1 2:2\n"
    back = load_sparse(path, keep_trivial=True)
    assert back.features.tobytes() == original.features.tobytes()
    assert back.labels.tobytes() == original.labels.tobytes()


def test_sparse_errors_carry_line_numbers(tmp_path):
    past_first_block = "".join(["300 2 2\n"] + ["0 1:1.0\n"] * 298 + ["1 2:x\n", "0 1:1.0\n"])
    cases = [
        ("0 1:abc\n", 1, "bad feature token '1:abc'"),
        ("0 1:1.0\nnot,numbers 1:1.0\n", 2, "bad label list 'not,numbers'"),
        ("2 2 2\n0 1:1.0\n", 0, "header declares 2 instances, found 1"),
        ("1 2 2\n0 5:1.0\n", 2, "feature index 5 out of range for d=2"),
        ("1 2 2\n0 0:1.0\n", 2, "feature index 0 is not 1-based"),
        ("1 2 2\n7 1:1.0\n", 2, "label index 7 out of range for c=2"),
        # numpy's reader refuses an index beyond int64, whatever d is
        ("1 2 2\n0 99999999999999999999:1\n", 2, "bad feature token '99999999999999999999:1'"),
        (past_first_block, 300, "bad feature token '2:x'"),
        ("0 1:1.0\n# note\n\n1 2:1.0 3\n", 4, "bad feature token '3'"),  # headerless
        ("1 2 2\n0 1:2:3\n", 2, "bad feature token '1:2:3'"),
        ("1 2 2\n0 1:\n", 2, "bad feature token '1:'"),
        ("1 2 2\n0 :5\n", 2, "bad feature token ':5'"),
        ("1 2 2\n0 7\n", 2, "bad feature token '7'"),
        ("1 2 2\n0 1.0:2\n", 2, "bad feature token '1.0:2'"),
        ("1 3 2\n0 1:2:3 3\n", 2, "bad feature token '1:2:3'"),  # as many colons as tokens
        ("1 2 2\n0 1:1 2:2 2:x 0:3\n", 2, "bad feature token '2:x'"),
        ("1 2 2\n0 1:nan\n", 2, "feature value 'nan' is not finite"),
        ("2 2 2\n0 1:1.0\n1 2:1e400\n", 3, "feature value '1e400' is not finite"),
        ("1 2 2\n0 2:-inf 1:x\n", 2, "feature value '-inf' is not finite"),
        ("1 2 2\n0 0:nan\n", 2, "feature index 0 is not 1-based"),
        ("-1 1:1.0\n", 1, "negative label index"),
        ("1 2 2\n0,-1 1:1.0\n", 2, "negative label index"),
        ("1:1.0\n", 0, "no labels present and no header to set the label count"),
        ("1 2 0\n 1:1\n", 0, "header declares 0 labels"),
        # the first faulty line is named, whatever its fault
        ("2 2 2\n0 5:1.0\n1 1:x\n", 2, "feature index 5 out of range for d=2"),
        ("2 2 2\n0 1:x\n5 1:1.0\n", 2, "bad feature token '1:x'"),
        ("1 2 2\n5,-1 1:1.0\n", 2, "negative label index"),
        ("1 2 2\n1 2:1.0 1:x\n", 2, "bad feature token '1:x'"),
        ("1 2 0\n0 1:1\n", 2, "label index 0 out of range for c=0"),
        # a byte that is not UTF-8 names the line str.splitlines puts it on
        (b"2 2 2\n0 1:1.0\n1 2:\xff\n", 3,
         "not UTF-8 text: cannot decode 0xff (invalid start byte)"),
        (b"2 2 2\r0 1:1.0\xc2\x851 2:\xe2\x82\n", 3,
         "not UTF-8 text: cannot decode 0xe2 0x82 (invalid continuation byte)"),
        (b"1 2 2\n0 1:x\n\xff\n", 2, "bad feature token '1:x'"),
        (b"2 2 2\n0 5:1.0\n\xff\n", 2, "feature index 5 out of range for d=2"),
        (b"5 2 2\n0 1:1.0\n\xff\n", 3, "not UTF-8 text: cannot decode 0xff (invalid start byte)"),
    ]
    path = write(tmp_path, "")
    for text, line, message in cases:
        write(tmp_path, text)
        with pytest.raises(DatasetFormatError) as err:
            load_sparse(path)
        assert str(err.value) == f"{path}:{line}: {message}", text[:40]
        assert err.value.line == line


def test_sparse_load_reads_the_file_once(tmp_path):
    # a fault is named from the one read of the file, valid or not
    path = write(tmp_path, "2 2 2\n0 1:1.0\n1 2:1.0\n")
    with mock.patch.object(dataset, "_lines", wraps=dataset._lines) as lines:
        assert load_sparse(path).n == 2
    assert lines.call_count == 1
    for text in ("2 2 2\n0 1:1.0\n1 2:x\n",  # token fault
                 "3 2 2\n0 1:1.0\n1 2:1.0\n",  # instance count
                 "2 2 2\n0 1:1.0\n1 5:1.0\n"):  # index range
        path = write(tmp_path, text)
        with mock.patch.object(dataset, "_lines", wraps=dataset._lines) as lines:
            with pytest.raises(DatasetFormatError):
                load_sparse(path)
        assert lines.call_count == 1, text


def test_sparse_index_beyond_int64_without_header_is_a_value_error(tmp_path):
    path = write(tmp_path, "0 1:1.0\n1 99999999999999999999:1.0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: bad feature token '99999999999999999999:1.0'")):
        load_sparse(path)
    path = write(tmp_path, "0 1:1.0\n9223372036854775808,0 1:1.0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: label index 9223372036854775808 does not fit in 64 bits")):
        load_sparse(path)


def test_sparse_ids_too_large_to_allocate_are_a_value_error(tmp_path):
    # without a header, a label id of 3e16 asks for a 2 x 3e16 label matrix
    path = write(tmp_path, "0 1:1.0\n30000000000000004 1:1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 2 x 1 features and 2 x ")):
        load_sparse(path)


def reference_load_sparse(path, keep_trivial=False):
    """The sparse loader written one line and one token at a time: the first
    faulty line in file order, then the counts, then the allocation."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header, rows, saw_first = None, [], False
    d = c = math.inf  # unbounded without a header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_first:
            saw_first = True
            header = _parse_header(tokens)
            if header is not None:
                _, d, c = header
                continue
        label_ids, feat_tokens = [], tokens
        if ":" not in tokens[0]:
            try:
                label_ids = [int(t) for t in tokens[0].split(",") if t]
            except ValueError:
                message = f"bad label list {tokens[0]!r}"
                try:
                    if len([float(t) for t in tokens[0].split(",")]) > 1:
                        message += ": a CSV row? a CSV file is read with its label count (--labels)"
                except ValueError:
                    pass
                raise DatasetFormatError(path, lineno, message)
            feat_tokens = tokens[1:]
        if any(l < 0 for l in label_ids):
            raise DatasetFormatError(path, lineno, "negative label index")
        for l in label_ids:
            if l >= c:
                raise DatasetFormatError(path, lineno, f"label index {l} out of range for c={c}")
            if l >= 2 ** 63:
                raise DatasetFormatError(path, lineno, f"label index {l} does not fit in 64 bits")
        feats = []
        for tok in feat_tokens:
            idx_s, _, val_s = tok.partition(":")
            try:
                # numpy's reader: ASCII, no underscores, the index in int64
                if not val_s or not tok.isascii() or "_" in tok:
                    raise ValueError(tok)
                idx, val = int(idx_s), float(val_s)
                if not -2 ** 63 <= idx < 2 ** 63:
                    raise ValueError(tok)
            except ValueError:
                raise DatasetFormatError(path, lineno, f"bad feature token {tok!r}")
            if idx < 1:
                raise DatasetFormatError(path, lineno, f"feature index {idx} is not 1-based")
            if not np.isfinite(val):
                raise DatasetFormatError(path, lineno, f"feature value {val_s!r} is not finite")
            if idx > d:
                raise DatasetFormatError(path, lineno, f"feature index {idx} out of range for d={d}")
            feats.append((idx, val))
        rows.append((label_ids, feats))
    if not rows:
        raise DatasetFormatError(path, 0, "no instances found")
    if header is not None:
        n_decl = header[0]
        if n_decl != len(rows):
            raise DatasetFormatError(path, 0, f"header declares {n_decl} instances, found {len(rows)}")
    else:
        d = max((idx for _, feats in rows for idx, _ in feats), default=0)
        c = max((l for ids, _ in rows for l in ids), default=-1) + 1
    if c == 0 and header is not None:
        raise DatasetFormatError(path, 0, "header declares 0 labels")
    if c == 0:
        raise DatasetFormatError(path, 0, "no labels present and no header to set the label count")
    try:
        X, Y = np.zeros((len(rows), d)), np.full((len(rows), c), -1.0)
    except MemoryError:
        raise ValueError("too large to allocate") from None
    for i, (label_ids, feats) in enumerate(rows):
        Y[i, label_ids] = 1.0
        for idx, val in feats:
            X[i, idx - 1] = val
    return _drop_trivial(X, Y, "ref", keep_trivial)


@st.composite
def mutated_sparse_text(draw):
    """A small valid sparse file, with or without a header, with one
    character or one token inserted, deleted or replaced."""
    n, d, c = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    values = st.sampled_from(["0.5", "-1.25", "3", "1e-3", "0.30000000000000004", "-0.0"])
    lines = [f"{n} {d} {c}"] if draw(st.booleans()) else []
    for _ in range(n):
        labels = draw(st.lists(st.integers(0, c - 1), max_size=c, unique=True))
        feats = draw(st.lists(st.integers(1, d), max_size=d, unique=True))
        line = ",".join(map(str, sorted(labels)))
        line += "".join(f" {j}:{draw(values)}" for j in sorted(feats))
        lines.append(line.strip() or "1:0")
    text = "\n".join(lines) + "\n"
    pos = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        piece = draw(st.sampled_from(list("0123456789" * 3 + ":,#-._ eax\t\n")
                                     + ["\u0663", "\u00a0", "\r", "\r\n", "\x0b", "\x0c",
                                        "\x1c", "\x85", "\u2028"]))
        cut = draw(st.integers(0, 1))
    else:
        # whole tokens, valid (a repeated index among them) and not
        piece = draw(st.sampled_from([" 1:9", " 2:-7.5", " 2:1e400",
                                      " 1:nan", "\n1 2:3", "1:2:3", " 1:2:3 7", "1:", ":5", " 7", "1.0:2",
                                      " 0:1", " 9:1", "-1", "",
                                      # read alike by numpy's C reader and by int()/float()
                                      " +1:2", " 01:2", " 1:infinity", " 1:-0", " 1:.5",
                                      " 1:1e-400",
                                      # faults: read by int()/float(), refused by the reader
                                      " 1:1_0", " 1:\u0663", " 1:1_000.5", " 1_0:2",
                                      # beyond int64: a fault, a feature index with a
                                      # header or without, a label without one
                                      " 99999999999999999999:1", "99999999999999999999",
                                      "9223372036854775808,0"]))
        cut = len(text[pos:].split(" ", 1)[0].split("\n", 1)[0]) if draw(st.booleans()) else 0
    return text[:pos] + piece + text[pos + cut:]


@settings(max_examples=400, deadline=None)
@given(text=mutated_sparse_text(),
       block_tokens=st.sampled_from([1, 2, dataset._BLOCK_TOKENS]),
       keep_trivial=st.booleans())
def test_sparse_loader_matches_line_by_line_reference(tmp_path_factory, text, block_tokens,
                                                      keep_trivial):
    path = str(tmp_path_factory.mktemp("mutated") / "data.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    outcomes = []
    for load in (load_sparse, reference_load_sparse):
        try:
            with mock.patch.object(dataset, "_BLOCK_TOKENS", block_tokens):
                data = load(path, keep_trivial=keep_trivial)
            outcomes.append((data.features.shape, data.features.tobytes(),
                             data.labels.tobytes(), data.dropped_trivial))
        except DatasetFormatError as err:
            outcomes.append(str(err))
        except ValueError:
            # no format fault, but ids too large for the dense arrays
            outcomes.append("too large")
    assert outcomes[0] == outcomes[1], text


@pytest.mark.parametrize("header", ["3 12 2\n", ""])
@pytest.mark.parametrize("token", ["1_0:2", "\u0663:1.5", "1:1_000.5", "12:\u0663",
                                   "99999999999999999999:1", "-99999999999999999999:1"])
def test_tokens_the_reader_refuses_are_faults_naming_their_line(tmp_path, header, token):
    # int() and float() read underscores and non-ASCII digits, and Python
    # ints have no bound; numpy's reader reads none of them, so the loader
    # names them as bad tokens rather than reading them some other way
    lines = header + f"0 10:2 3:1.5\n1 3:1.5 {token}\n0,1 12:-0.25\n"
    path = write(tmp_path, lines)
    with pytest.raises(DatasetFormatError) as err:
        load_sparse(path)
    line = 3 if header else 2
    assert str(err.value) == f"{path}:{line}: bad feature token {token!r}"


@pytest.mark.parametrize("keep_trivial", [True, False])
@pytest.mark.parametrize("header", ["3 12 2\n", ""])
def test_tokens_only_python_reads_load_as_written_plainly(tmp_path, keep_trivial, header):
    # label lists are still read by int(), so underscores and non-ASCII
    # digits there load as the plain ids; only feature tokens go through
    # numpy's reader
    odd = load_sparse(write(tmp_path, header + "0_0 10:2 3:1.5\n١ 3:1.5 1:10\n"
                                     "0,0_1 12:-0.25\n", "odd.txt"), keep_trivial=keep_trivial)
    plain = load_sparse(write(tmp_path, header + "0 10:2 3:1.5\n1 3:1.5 1:10\n"
                                       "0,1 12:-0.25\n", "plain.txt"), keep_trivial=keep_trivial)
    assert odd.features.shape == plain.features.shape == ((3, 12) if keep_trivial else (2, 12))
    assert odd.features.tobytes() == plain.features.tobytes()
    assert odd.labels.tobytes() == plain.labels.tobytes()
    assert odd.dropped_trivial == plain.dropped_trivial == (0 if keep_trivial else 1)


@pytest.mark.parametrize("token", ["1.5:0", "1_0:2", "\u0661:2", "99999999999999999999:1"])
def test_the_reader_refuses_an_index_int64_cannot_hold_as_written(token):
    # the loader has no other reader: a numpy whose reader took any of these
    # (numpy 1.23 read 1.5 as 1 under a DeprecationWarning) would misread a
    # file, so this pins the installed numpy to the contract
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            dataset._features([token])


@pytest.mark.parametrize("text", ["+1", "01", "1e-400", "infinity", "-0", "-infinity", "nan",
                                  ".5", "1E+5"])
def test_the_reader_reads_numbers_as_int_and_float_do(text):
    index = text if text in ("+1", "01", "-0") else "7"
    idx, vals = dataset._features([f"{index}:{text}"])
    assert idx.dtype == np.int64 and idx.tolist() == [int(index)]
    assert vals.dtype == np.float64
    assert vals.tobytes() == np.float64(float(text)).tobytes()


def test_labels_only_lines_load_without_a_warning(tmp_path):
    # a block with no feature token makes no call to numpy's C reader,
    # which warns on empty input
    path = write(tmp_path, "2 3 2\n0\n1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = load_sparse(path)
    assert data.features.tobytes() == np.zeros((2, 3)).tobytes()
    np.testing.assert_array_equal(data.labels, [[1.0, -1.0], [-1.0, 1.0]])


def test_sparse_load_memory_is_about_the_output(tmp_path):
    # the file is streamed in blocks, so a load holds the output arrays plus
    # 16 B per stored value and one block, not a multiple of the file size
    original = synthetic_linear(600, 294, 6, seed=5)
    path = str(tmp_path / "dense.txt")
    save_sparse(original, path)
    tracemalloc.start()
    try:
        data = load_sparse(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.tobytes() == original.features.tobytes()
    assert peak <= 4 * (data.features.nbytes + data.labels.nbytes)


def test_headed_sparse_load_holds_its_output_and_one_block(tmp_path):
    # a header gives the shape before the first block, so each block is
    # scattered into the output as it is converted, not queued until the end
    original = synthetic_linear(2000, 294, 6, seed=5)
    path = str(tmp_path / "dense.txt")
    save_sparse(original, path)
    tracemalloc.start()
    try:
        data = load_sparse(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.tobytes() == original.features.tobytes()
    assert data.labels.tobytes() == original.labels.tobytes()
    assert peak <= 1.5 * (data.features.nbytes + data.labels.nbytes)


@pytest.mark.parametrize("header", ["1000000000000 1000000 2", "10000000 4 2"])
def test_header_declaring_absent_rows_is_a_count_fault(tmp_path, header):
    # too large to allocate, or allocated but never touched beyond the
    # file's rows: either way the count is the fault named
    path = write(tmp_path, f"{header}\n0 1:1.0\n1 2:1.0\n0 1:2.0\n")
    code = ("import resource, sys\n"
            "from mlrank.dataset import DatasetFormatError, load_sparse\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    load_sparse(sys.argv[1])\n"
            "except DatasetFormatError as err:\n"
            "    print(err)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dataset.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    message, grown_kib = proc.stdout.splitlines()
    assert message == f"{path}:0: header declares {header.split()[0]} instances, found 3"
    # the 10^7-row header allocates 480 MB, and touches none of it
    assert int(grown_kib) < 64 * 1024


def test_sparse_empty_file_rejected(tmp_path):
    path = write(tmp_path, "# nothing but comments\n")
    with pytest.raises(DatasetFormatError):
        load_sparse(path)


def test_header_detection_requires_exactly_three_ints(tmp_path):
    # four integers are a data line, not a header: labels "1,2" features none
    path = write(tmp_path, "0 1:1 2:2 3:3\n1 1:4\n")
    data = load_sparse(path)
    assert data.n == 2


# ---------------------------------------------------------------------------
# csv format
# ---------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    original = synthetic_linear(20, 4, 3, seed=9)
    path = str(tmp_path / "rt.csv")
    save_csv(original, path)
    back = load_csv(path, 3)
    np.testing.assert_array_equal(back.labels, original.labels)
    np.testing.assert_allclose(back.features, original.features)


def test_csv_accepts_zero_one_labels(tmp_path):
    path = write(tmp_path, "0.5,1.5,1,0\n-0.5,2.5,0,1\n", name="d.csv")
    data = load_csv(path, 2)
    np.testing.assert_array_equal(data.labels, [[1.0, -1.0], [-1.0, 1.0]])


def test_csv_rejects_mixed_label_values(tmp_path):
    path = write(tmp_path, "1.0,1,0\n2.0,0.5,1\n", name="d.csv")
    with pytest.raises(DatasetFormatError):
        load_csv(path, 2)


@pytest.mark.parametrize("value", ["nan", "2", "-1"])
def test_csv_label_fault_names_its_line(tmp_path, value):
    # the cells before line 3 hold 0 and 1, so a -1 there breaks their encoding
    path = write(tmp_path, f"1.0,2.0,1,0\n3.0,4.0,0,1\n5.0,6.0,1,{value}\n", name="d.csv")
    with pytest.raises(DatasetFormatError) as err:
        load_csv(path, 2)
    assert str(err.value) == \
        f"{path}:3: label columns must lie in {{0,1}} or {{-1,+1}}, found {value!r}"
    assert err.value.line == 3


@pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
def test_csv_rejects_a_non_finite_feature_naming_its_line(tmp_path, value):
    # comment and blank lines count as lines, not as data rows
    path = write(tmp_path, f"# x1,x2,y1,y2\n1.0,2.0,1,0\n\n0.5,{value},0,1\n", name="d.csv")
    with pytest.raises(DatasetFormatError) as err:
        load_csv(path, 2)
    assert str(err.value) == f"{path}:4: feature value {value!r} is not finite"
    assert err.value.line == 4


@pytest.mark.parametrize("text, line, message", [
    # numpy's reader named the first as row 2 (0-based) and the second as
    # row 2 (1-based), and neither by its line
    ("# x1,x2,y1,y2\n1.0,2.0,1,0\n0.5,x,0,1\n", 3, "'x' to float64 at column 2."),
    ("1.0,2.0,1,0\n# note\n\n0.5,1.5,0\n", 4, "the first row has 4 cells, this one 3"),
    ("1.0,2.0,1,0\n0.5,1.5,0,1,1\n3.0,x,1,0\n", 2, "the first row has 4 cells, this one 5"),
    ("1.0,2.0,1,0\n0.5,,0,1\n", 2, "'' to float64 at column 2."),
    ("1.0,2.0,1,0\n1_0,2.0,0,1\n", 2, "'1_0' to float64 at column 1."),
    # a line of blanks is a row to the reader, a line of nothing is not
    ("1.0,2.0,1,0\n\n  \n0.5,1.5,0,1\n", 3, "'  ' to float64 at column 1."),
    ("  # note\n1.0,2.0,1,0\n", 1, "'  ' to float64 at column 1."),
    ("1 2 3\n0 1:1.0\n", 1, "'1 2 3' to float64 at column 1."),
    ("", 0, "no instances found"),
    ("\n\n# only comments\n\r\n", 0, "no instances found"),
    # a byte that is not UTF-8 names its line, in a row or in a comment, on
    # lines counted as _csv_rows counts them
    (b"1.0,2.0,1,0\n3,\xff,0,1\n", 2, "not UTF-8 text: cannot decode 0xff (invalid start byte)"),
    (b"1.0,2.0,1,0\r# caf\xe9\r0.5,1.5,0,1\r", 2,
     "not UTF-8 text: cannot decode 0xe9 (invalid continuation byte)"),
], ids=["bad-cell", "ragged", "ragged-before-bad-cell", "empty-cell", "underscore",
        "blank-row", "blank-before-comment", "sparse-text", "empty", "blank-only",
        "not-utf8-row", "not-utf8-comment"])
def test_csv_faults_name_their_line(tmp_path, text, line, message):
    path = write(tmp_path, text, name="d.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's reader warns on a file without data
        with pytest.raises(DatasetFormatError) as err:
            load_csv(path, 2)
    if message.startswith("'"):
        message = "not numeric CSV: could not convert string " + message
    assert str(err.value) == f"{path}:{line}: {message}"
    assert err.value.line == line


def test_cross_format_roundtrip(tmp_path):
    original = synthetic_linear(15, 5, 2, seed=2)
    sp, cv = str(tmp_path / "a.txt"), str(tmp_path / "a.csv")
    save_sparse(original, sp)
    save_csv(load_sparse(sp), cv)
    back = load_csv(cv, 2)
    np.testing.assert_array_equal(back.labels, original.labels)
    np.testing.assert_allclose(back.features, original.features)


# ---------------------------------------------------------------------------
# splits and preprocessing
# ---------------------------------------------------------------------------


def test_kfold_split_partitions():
    fold_of = kfold_split(25, 3, seed=1)
    assert fold_of.shape == (25,)
    sizes = np.bincount(fold_of, minlength=3)
    assert sizes.sum() == 25 and sizes.max() - sizes.min() <= 1
    np.testing.assert_array_equal(fold_of, kfold_split(25, 3, seed=1))
    assert (fold_of != kfold_split(25, 3, seed=2)).any()
    with pytest.raises(ValueError):
        kfold_split(3, 4, seed=0)


def test_standardize_fit_apply():
    data = synthetic_linear(200, 6, 2, seed=3)
    out, params = prepare_data(data)
    assert np.all(np.abs(out.features[:, :6].mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.features[:, :6].std(axis=0) - 1.0) < 1e-6)
    np.testing.assert_array_equal(params.mean, data.features.mean(axis=0))


def test_standardize_constant_feature_floor():
    X = np.ones((10, 2))
    X[:, 1] = np.arange(10, dtype=float)
    data = MultiLabelDataset(X, np.tile([1.0, -1.0], (10, 1)))
    out, params = prepare_data(data)
    # constant column centers to zero without dividing by ~0
    assert params.std[0] == 1.0
    assert np.all(out.features[:, 0] == 0.0)
    assert np.all(np.isfinite(out.features))


@pytest.mark.parametrize("d", [1, 2, 3, 72, 294])
def test_standardize_fit_is_numpy_mean_and_std_bit_for_bit(d):
    # on the strided first d columns that prepare_data passes, over many blocks
    rng = np.random.default_rng(d)
    X = rng.standard_normal((2407, d + 1)) * rng.uniform(0.01, 100.0, d + 1)
    X += rng.uniform(-50.0, 50.0, d + 1)
    params = dataset.standardize_fit(X[:, :d])
    assert params.mean.tobytes() == X[:, :d].mean(axis=0).tobytes()
    assert params.std.tobytes() == X[:, :d].std(axis=0).tobytes()


def test_standardization_holds_one_block_of_deviations():
    # a scene-shaped training fold: np.std's whole deviation matrix would
    # double the peak over the prepared features
    data = synthetic_linear(1605, 294, 6, seed=7)
    tracemalloc.start()
    try:
        out, _ = prepare_data(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.features.nbytes


def test_append_bias():
    data = synthetic_linear(10, 3, 2, seed=5)
    out, params = prepare_data(data)
    assert out.d == 4
    # the bias column is left 1 by standardization; the features are not
    np.testing.assert_array_equal(out.features[:, -1], 1.0)
    np.testing.assert_array_equal(out.features[:, :3],
                                  (data.features - params.mean) / params.std)


def test_subset():
    data = synthetic_linear(12, 3, 2, seed=6)
    sub = data.subset(np.array([0, 5, 7]))
    assert sub.n == 3
    np.testing.assert_array_equal(sub.features[1], data.features[5])
    np.testing.assert_array_equal(sub.labels[2], data.labels[7])


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_is_deterministic_and_nontrivial():
    a = synthetic_linear(50, 8, 4, seed=11)
    b = synthetic_linear(50, 8, 4, seed=11)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    pos = (a.labels > 0).sum(axis=1)
    assert np.all(pos >= 1) and np.all(pos <= 3)


def test_synthetic_noise_flips_labels():
    clean = synthetic_linear(100, 6, 3, seed=12)
    noisy = synthetic_linear(100, 6, 3, seed=12, noise=0.2)
    assert (clean.labels != noisy.labels).any()
