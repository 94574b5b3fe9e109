"""Command line driver.

Subcommands::

    mlrank convert      rewrite a dataset between sparse text and dense CSV
    mlrank train        fit one model and save it
    mlrank cv           cross-validated lambda selection for one algorithm
    mlrank bench        full benchmark grid over datasets x algorithms
    mlrank consistency  product-condition check, counterexamples, random audit
    mlrank bounds       deviation bounds for a trained model on a dataset
    mlrank report       regenerate summary table and charts from bench CSVs

``train``, ``cv``, ``bench`` and ``bounds`` build one :class:`ExperimentConfig`
in :func:`_experiment`: the ``bench --config`` file or the defaults, then each
flag given, which sets the field its argparse ``dest`` names, then a nonempty
``MLRANK_THREADS``, which sets ``workers`` and parses like ``--workers``.
Defaults live in :class:`ExperimentConfig` and, for the solver,
``OptimizerConfig``.  :meth:`ExperimentConfig.validate` rejects what no run
could use before any data is read, the hinge base included.  A label
count (``--labels``) selects the CSV reader, and its absence the sparse
one.  Features are always prepared by :func:`mlrank.trainer.prepare_data`:
standardized (``train`` and ``bounds`` on the whole file, ``cv`` and
``bench`` on each fold's training rows) and given a bias column.
Every command that reads a dataset reports the trivial rows its loader
dropped; ``bench``, ``report``, ``cv --csv`` and ``consistency --report``
print ``wrote <path>`` per file.

Exit codes: 0 success, 1 task failure (training aborted), 2 invalid
configuration or malformed input data, 3 I/O error.  A stdout closed early
(``mlrank ... | head``) ends the command quietly with 0.  Benchmark artifacts
embed a hash of the full configuration in their file names, so differing runs
never overwrite each other.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import consistency as cons
from .dataset import (DatasetFormatError, MultiLabelDataset, dataset_name, load_csv,
                      load_sparse, save_csv, save_sparse)
from .losses import SCHEME_KINDS, BaseLoss
from .model import SURROGATES, load_model, save_model
from .optimizer import NonFiniteObjectiveError, OptimizerConfig
from .trainer import (CvResult, cross_validate, evaluate, fit_spec, prepare_data,
                      train_with_trace)

EXIT_OK = 0
EXIT_TASK = 1
EXIT_CONFIG = 2
EXIT_IO = 3

DEFAULT_GRID = [10.0 ** e for e in range(-8, 3)]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Everything a benchmark run depends on; serializable, hashable.

    The seed and the grid coordinates determine every random draw, so two
    runs from equal configurations produce identical metrics regardless of
    worker count.
    """

    datasets: list[str] = field(default_factory=list)
    label_count: int | None = None
    algos: list[str] = field(default_factory=lambda: list(SURROGATES))
    base: str = "logistic"
    lambda_grid: list[float] = field(default_factory=lambda: list(DEFAULT_GRID))
    folds: int = 3
    seed: int = 0
    outer_epochs: int = OptimizerConfig.outer_epochs
    tolerance: float = OptimizerConfig.tolerance
    select_on_test_folds: bool = False
    workers: int = 1
    outdir: str = "results"
    smoke: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a config no run could use: no dataset
        or algorithm, two datasets of one name (which names their results),
        an algorithm given twice (which would repeat its CSV rows),
        ``label_count < 1``, an empty lambda grid, ``folds < 2``,
        ``workers < 1``, or what ``BaseLoss``, ``fit_spec`` (algorithm, hinge
        base, lambda) or ``OptimizerConfig`` (solver fields) rejects."""
        if not self.datasets:
            raise ConfigError("no datasets given")
        names = [dataset_name(p) for p in self.datasets]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"datasets {self.datasets[names.index(name)]} and "
                                  f"{self.datasets[i]} share the name {name!r}")
        if self.label_count is not None and self.label_count < 1:
            raise ConfigError(f"label_count must be >= 1, not {self.label_count}")
        if not self.algos:
            raise ConfigError("no algorithms given")
        for i, algo in enumerate(self.algos):
            if algo in self.algos[:i]:
                raise ConfigError(f"algorithm {algo!r} is given twice")
        if not self.lambda_grid:
            raise ConfigError("lambda grid is empty")
        if self.folds < 2:
            raise ConfigError("need at least 2 folds")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, not {self.workers}")
        try:
            base = BaseLoss(self.base)
            for algo in self.algos:
                for lam in self.lambda_grid:
                    fit_spec(algo, base, lam)
            _optimizer_config(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


def config_from_text(text: str, path: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _parse_config_value(key, value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}")
    return cfg


def _parse_config_value(key: str, value: str) -> object:
    """Parse ``value`` by the declared type of field ``key``; ``none`` only
    for optional fields, ``true``/``false`` only for booleans."""
    hint = _FIELD_TYPES[key]
    if typing.get_origin(hint) is list:
        item = typing.get_args(hint)[0]
        return [_parse_scalar(key, item, v.strip()) for v in value.split(",")] if value else []
    if type(None) in typing.get_args(hint):
        if value == "none":
            return None
        hint = typing.get_args(hint)[0]
    return _parse_scalar(key, hint, value)


def _parse_scalar(key: str, kind: type, value: str) -> object:
    if kind is bool:
        if value not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, not {value!r}")
        return value == "true"
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, not {value!r}") from None


# metrics are invariant to where results land and how many workers run,
# so these fields stay out of the artifact hash
_UNHASHED_FIELDS = ("outdir", "workers")


def config_hash(cfg: ExperimentConfig) -> str:
    lines = [ln for ln in config_to_text(cfg).splitlines()
             if ln.split(" = ")[0] not in _UNHASHED_FIELDS]
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:10]


def _apply_smoke(cfg: ExperimentConfig) -> ExperimentConfig:
    """With ``smoke`` on, a copy at CI scale: few epochs, two-point grid.
    With it off, ``cfg`` itself."""
    if not cfg.smoke:
        return cfg
    cfg = dataclasses.replace(cfg)
    cfg.outer_epochs = min(cfg.outer_epochs, 3)
    if len(cfg.lambda_grid) > 2:
        cfg.lambda_grid = [min(cfg.lambda_grid), max(cfg.lambda_grid)]
    return cfg


def _experiment(args: argparse.Namespace, text: str | None = None,
                path: str = "<config>") -> ExperimentConfig:
    """The config ``text`` (or the defaults), overridden by every field flag
    in ``args``, then by a nonempty ``MLRANK_THREADS`` for ``workers``,
    validated.  Field flags have no argparse default, so only those given
    appear in ``args``; strings parse like config values."""
    cfg = config_from_text(text or "", path)
    for key, value in vars(args).items():
        if key in _FIELD_TYPES:
            setattr(cfg, key, _parse_config_value(key, value) if isinstance(value, str) else value)
    threads = os.environ.get("MLRANK_THREADS")
    if threads:
        try:
            cfg.workers = _parse_config_value("workers", threads)
        except ValueError as exc:
            raise ConfigError(f"MLRANK_THREADS: {exc}") from None
    cfg.validate()
    return cfg


def _optimizer_config(cfg: ExperimentConfig) -> OptimizerConfig:
    return OptimizerConfig(**{f.name: getattr(cfg, f.name)
                              for f in dataclasses.fields(OptimizerConfig)})


def _cross_validate(data: MultiLabelDataset, algo: str, cfg: ExperimentConfig) -> CvResult:
    return cross_validate(data, algo, cfg.lambda_grid, k=cfg.folds, seed=cfg.seed,
                          base=BaseLoss(cfg.base), optimizer_cfg=_optimizer_config(cfg),
                          select_on_test_folds=cfg.select_on_test_folds, workers=cfg.workers)


def _load_dataset(path: str, label_count: int | None,
                  keep_trivial: bool = False) -> MultiLabelDataset:
    """Load a dataset, CSV if ``label_count`` is given, and say how many
    trivial rows the loader dropped; raise :class:`ConfigError` if it
    dropped every row."""
    data = (load_sparse(path, keep_trivial=keep_trivial) if label_count is None
            else load_csv(path, label_count, keep_trivial=keep_trivial))
    if data.n == 0:
        raise ConfigError(f"{path}: all {data.dropped_trivial} instances are trivial; "
                          "nothing is left to use")
    if data.dropped_trivial:
        print(f"{data.name}: dropped {data.dropped_trivial} trivial instances")
    return data


def _check_csv_names(paths) -> None:
    """Raise :class:`ConfigError` if a dataset name, the first cell of its
    bench CSV rows, holds a comma or a line break.  The path is quoted, for
    it holds the name."""
    for path in paths:
        name = dataset_name(path)
        if set(name) & {",", "\r", "\n"}:
            raise ConfigError(f"dataset {str(path)!r}: its name {name!r} holds a comma or a "
                              "line break, which a bench CSV cell cannot hold")


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render_summary_markdown(table: dict[str, dict[str, tuple[float, float]]],
                            algos: list[str], note: str = "") -> str:
    """Benchmark table: rows are datasets, cells ``mean +- std`` ranking loss.

    The best entry per dataset gets a dagger, the top two are bold.
    """
    lines = ["| Dataset | " + " | ".join(algos) + " |",
             "|---" * (len(algos) + 1) + "|"]
    for dataset in sorted(table):
        row = table[dataset]
        present = [a for a in algos if a in row]
        order = sorted(present, key=lambda a: row[a][0])
        top_two = set(order[:2])
        best = order[0] if order else None
        cells = []
        for a in algos:
            if a not in row:
                cells.append("-")
                continue
            mean, std = row[a]
            cell = f"{mean:.4f} ± {std:.4f}"
            if a == best:
                cell += "†"
            if a in top_two:
                cell = f"**{cell}**"
            cells.append(cell)
        lines.append("| " + dataset + " | " + " | ".join(cells) + " |")
    if note:
        lines += ["", note]
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4")


def render_runtime_svg(seconds: dict[str, dict[str, float]], algos: list[str]) -> str:
    """Log-scale grouped bar chart of training seconds, hand-rolled SVG."""
    datasets = sorted(seconds)
    values = [seconds[d].get(a, 0.0) for d in datasets for a in algos]
    positive = [v for v in values if v > 0.0]
    vmax = max(positive, default=1.0)
    vmin = min(positive, default=0.1)
    lo = np.floor(np.log10(vmin)) - 0.2
    hi = np.ceil(np.log10(vmax)) + 0.2
    span = max(hi - lo, 1.0)

    bar_w, gap, group_gap = 22, 4, 30
    group_w = len(algos) * (bar_w + gap) + group_gap
    plot_h, margin_l, margin_t, margin_b = 260, 60, 30, 70
    width = margin_l + len(datasets) * group_w + 40
    height = margin_t + plot_h + margin_b

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{margin_l}" y="16" font-size="13">training wall time per algorithm '
             f'(seconds, log scale)</text>']
    # y axis decade ticks
    for e in range(int(np.floor(lo)), int(np.ceil(hi)) + 1):
        frac = (e - lo) / span
        if not 0.0 <= frac <= 1.0:
            continue
        y = margin_t + plot_h - frac * plot_h
        parts.append(f'<line x1="{margin_l - 4}" y1="{y:.1f}" x2="{width - 20}" y2="{y:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end">1e{e}</text>')
    # bars
    for di, dataset in enumerate(datasets):
        gx = margin_l + di * group_w
        for ai, algo in enumerate(algos):
            v = seconds[dataset].get(algo, 0.0)
            x = gx + ai * (bar_w + gap)
            if v > 0.0:
                frac = (np.log10(v) - lo) / span
                h = max(frac, 0.0) * plot_h
            else:
                h = 0.0
            y = margin_t + plot_h - h
            color = _SVG_COLORS[ai % len(_SVG_COLORS)]
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w}" height="{h:.1f}" '
                         f'fill="{color}"><title>{dataset} {algo}: {v:.3g}s</title></rect>')
        label_x = gx + (len(algos) * (bar_w + gap)) / 2
        parts.append(f'<text x="{label_x:.1f}" y="{margin_t + plot_h + 16}" '
                     f'text-anchor="middle">{dataset}</text>')
    # legend
    for ai, algo in enumerate(algos):
        x = margin_l + ai * 70
        y = margin_t + plot_h + 36
        color = _SVG_COLORS[ai % len(_SVG_COLORS)]
        parts.append(f'<rect x="{x}" y="{y}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{y + 10}">{algo}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_BENCH_CSV_HEADER = "dataset,algo,fold,lambda,ranking_loss,partial_ranking_loss,seconds"


def _write_bench_csv(path, results: list[CvResult]) -> None:
    """The per-fold CSV of ``cv --csv`` and ``bench``: one row per fold of
    each result, at its selected lambda."""
    rows = [",".join([r.dataset, r.algorithm, str(f), f"{r.best_lambda:.17g}",
                      f"{r.fold_ranking_losses[f]:.17g}", f"{r.fold_partial_losses[f]:.17g}",
                      f"{r.fold_seconds[f]:.6f}"])
            for r in results for f in range(r.folds)]
    _write(path, _BENCH_CSV_HEADER + "\n" + "\n".join(rows) + "\n")


def _summarize_bench_csvs(paths) -> tuple[dict[str, dict[str, tuple[float, float]]],
                                          dict[str, dict[str, float]], list[str]]:
    """Summary of bench CSVs: per (dataset, algo) cell the mean and std of the
    fold ranking losses and the sum of the fold ``seconds``, plus the
    algorithms in order of first appearance.  Blank lines are skipped; a
    malformed row, one whose numbers are not finite, whose losses lie
    outside [0, 1] or whose ``seconds`` is negative or takes its cell's sum
    past the float range, or one whose (dataset, algo, fold) repeats an
    earlier row's, raises :class:`ConfigError` naming its file and line, and
    so do files with no data rows."""
    fold_losses: dict[tuple[str, str], list[float]] = {}
    seconds: dict[str, dict[str, float]] = {}
    algos: list[str] = []
    seen: dict[tuple[str, str, str], str] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != _BENCH_CSV_HEADER:
                raise ConfigError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                if len(cells) != 7:
                    raise ConfigError(f"{path}:{lineno}: expected 7 cells, found {len(cells)}")
                dataset, algo = cells[0], cells[1]
                try:
                    lam, ranking, partial, secs = map(float, cells[3:])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                # a comparison with nan is false, so these also reject nan
                if not (np.isfinite(lam) and 0.0 <= ranking <= 1.0 and 0.0 <= partial <= 1.0
                        and 0.0 <= secs < np.inf):
                    raise ConfigError(f"{path}:{lineno}: lambda and seconds must be finite, "
                                      "seconds >= 0 and losses in [0, 1]")
                key = (dataset, algo, cells[2])
                if key in seen:
                    raise ConfigError(f"{path}:{lineno}: dataset {dataset}, algo {algo}, "
                                      f"fold {cells[2]} repeats {seen[key]}")
                seen[key] = f"{path}:{lineno}"
                if algo not in algos:
                    algos.append(algo)
                fold_losses.setdefault((dataset, algo), []).append(ranking)
                cell = seconds.setdefault(dataset, {})
                cell[algo] = cell.get(algo, 0.0) + secs
                if cell[algo] == np.inf:
                    raise ConfigError(f"{path}:{lineno}: the seconds of dataset {dataset}, "
                                      f"algo {algo} sum past the float range")
    if not fold_losses:
        raise ConfigError(f"{', '.join(map(str, paths))}: no data rows")
    table: dict[str, dict[str, tuple[float, float]]] = {}
    for (dataset, algo), losses_ in fold_losses.items():
        table.setdefault(dataset, {})[algo] = (float(np.mean(losses_)), float(np.std(losses_)))
    return table, seconds, algos


def _write_report(outdir: Path, stem: str, csv_paths,
                  note: str = "") -> tuple[dict[str, dict[str, float]], list[str]]:
    """Write ``summary_<stem>.md`` and ``runtime_<stem>.svg`` from bench CSVs;
    return each cell's summed seconds and the algorithms, as summarized."""
    table, seconds, algos = _summarize_bench_csvs(csv_paths)
    outdir.mkdir(parents=True, exist_ok=True)
    _write(outdir / f"summary_{stem}.md", render_summary_markdown(table, algos, note))
    _write(outdir / f"runtime_{stem}.svg", render_runtime_svg(seconds, algos))
    return seconds, algos


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    data = _load_dataset(args.input, args.labels, args.keep_trivial)
    if args.to == "csv":
        save_csv(data, args.output)
    else:
        save_sparse(data, args.output)
    print(f"wrote {args.output} ({data.n} instances, d={data.d}, c={data.c})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _apply_smoke(_experiment(args))
    spec = fit_spec(cfg.algos[0], BaseLoss(cfg.base), args.lam)  # lambda checked before the read
    data = _load_dataset(cfg.datasets[0], cfg.label_count)
    prepared, _ = prepare_data(data)
    model, trace = train_with_trace(prepared, spec.surrogate, spec.lam, spec.base,
                                    _optimizer_config(cfg))
    save_model(model, args.out)
    if args.trace:
        trace.to_csv(args.trace)
    report = evaluate(model, prepared)
    print(f"saved model to {args.out}")
    print(f"epochs run: {len(trace.records)}  stop: {trace.stop_reason}")
    print(f"training ranking loss: {report.ranking_loss:.6f}  "
          f"partial: {report.partial_ranking_loss:.6f}")
    return EXIT_OK


def cmd_cv(args) -> int:
    cfg = _apply_smoke(_experiment(args))
    if args.csv:
        _check_csv_names(cfg.datasets)
    data = _load_dataset(cfg.datasets[0], cfg.label_count)
    result = _cross_validate(data, cfg.algos[0], cfg)
    print(f"dataset {result.dataset}: n={data.n} d={data.d} c={data.c}")
    print(f"algorithm {result.algorithm} ({result.protocol}), {result.folds} folds, "
          f"seed {result.seed}")
    print(f"selected lambda: {result.best_lambda:g}")
    print(f"ranking loss: {result.mean_ranking_loss:.4f} ± {result.std_ranking_loss:.4f}")
    print(f"partial ranking loss: {result.mean_partial_ranking_loss:.4f} ± "
          f"{result.std_partial_ranking_loss:.4f}")
    print(f"grid seconds: {result.selection_seconds:.2f}  final seconds: "
          f"{result.total_seconds:.2f}")
    print(f"unconverged: {result.unconverged_fits} of {len(result.fits)} fits")
    if args.csv:
        _write_bench_csv(args.csv, [result])
    return EXIT_OK


def cmd_bench(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8") if args.config else None
    cfg = _experiment(args, text, args.config or "<config>")
    _check_csv_names(cfg.datasets)
    run_cfg = _apply_smoke(cfg)
    tag = config_hash(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    csv_paths: list[Path] = []
    for path in run_cfg.datasets:
        data = _load_dataset(path, run_cfg.label_count)
        results = []
        for algo in run_cfg.algos:
            result = _cross_validate(data, algo, run_cfg)
            results.append(result)
            print(f"{data.name} {algo}: ranking loss {result.mean_ranking_loss:.4f} "
                  f"± {result.std_ranking_loss:.4f} (lambda {result.best_lambda:g}; "
                  f"unconverged: {result.unconverged_fits} of {len(result.fits)} fits)")
        csv_paths.append(outdir / f"bench_{data.name}_{tag}.csv")
        _write_bench_csv(csv_paths[-1], results)

    # the summary and runtime chart come from the CSVs just written, exactly
    # as `mlrank report` rebuilds them
    note = f"configuration hash: {tag}"
    if cfg.smoke:
        note += " (smoke mode: reduced epochs and lambda grid; metrics are not comparable)"
    runtime, algos = _write_report(outdir, tag, csv_paths, note)
    _write(outdir / f"runtime_{tag}.csv", "dataset,algo,seconds\n" + "".join(
        f"{dataset},{algo},{runtime[dataset][algo]:.6f}\n"
        for dataset in sorted(runtime) for algo in algos if algo in runtime[dataset]))
    _write(outdir / f"config_{tag}.txt", config_to_text(cfg))
    return EXIT_OK


def cmd_consistency(args) -> int:
    if args.scheme not in SCHEME_KINDS:
        raise ConfigError(f"scheme must be one of u1..u4, not {args.scheme!r}")
    base = BaseLoss(args.base)
    if not 2 <= args.c <= cons.MAX_ENUMERATED_LABELS:
        raise ConfigError(f"--c must lie in 2..{cons.MAX_ENUMERATED_LABELS}, not {args.c}")
    if args.show < 0:
        raise ConfigError(f"--show must be >= 0, not {args.show}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, not {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    records: list[dict] = []

    tau = cons.necessary_condition_tau(args.scheme, args.c)
    if tau.holds:
        print(f"{args.scheme} at c={args.c}: product condition holds, tau = "
              f"{tau.tau}")
    else:
        k1, k2, r1, r2 = tau.witness
        print(f"{args.scheme} at c={args.c}: product condition FAILS; split sizes "
              f"{k1} and {k2} give ratios {r1} vs {r2}")
    records.append({"type": "tau", "scheme": args.scheme, "c": args.c,
                    "holds": tau.holds,
                    "tau": str(tau.tau) if tau.holds else None,
                    "witness": None if tau.holds else [str(x) for x in tau.witness]})

    if not tau.holds:
        dist = cons.tau_witness_distribution(args.scheme, args.c)
        verdict = cons.check_consistency_on_distribution(
            dist, cons.scheme_assignment(args.scheme))
        w = verdict.witness
        print("constructive two-atom distribution:")
        for atom, p in zip(dist.atoms, dist.probs):
            print(f"  P({_fmt_atom(atom)}) = {p:.6f}")
        print(f"  sign conflict at labels ({w.p}, {w.q}): measure demands "
              f"{w.p} above {w.q} ({w.delta_products[0]:.6g} > {w.delta_products[1]:.6g}) "
              f"but surrogate scores do not ({w.phi_products[0]:.6g} <= {w.phi_products[1]:.6g})")
        records.append(_conflict_record("constructive", dist, w))

    if base.kind == "hinge":
        record = cons.hinge_counterexample()
        print("hinge tie counterexample (c=2):")
        for atom, p in zip(record.dist.atoms, record.dist.probs):
            print(f"  P({_fmt_atom(atom)}) = {p:.6f}")
        print(f"  hinge Bayes scores: {record.bayes.scores.tolist()}  "
              f"member of measure-optimal set: {record.membership.member}")
        records.append({"type": "hinge_counterexample",
                        "atoms": record.dist.atoms.tolist(),
                        "probs": record.dist.probs.tolist(),
                        "bayes_scores": record.bayes.scores.tolist(),
                        "member": record.membership.member})

    if base.kind not in cons.MONOTONE_BASES:
        reason = (f"the {base.kind} Bayes link is not strictly increasing in phi+/phi-, "
                  "so the sign audit does not apply")
        print(f"random search: skipped; {reason}")
        records.append({"type": "search_skipped", "base": base.kind, "reason": reason})
    else:
        search = cons.random_violation_search(args.scheme, args.c, args.trials,
                                              seed=args.seed, base=base)
        print(f"random search: {len(search.violations)} violating distributions "
              f"in {search.trials} trials (seed {args.seed})")
        for v in search.violations[:args.show]:
            print(f"  trial {v.trial}: conflict at labels ({v.witness.p}, {v.witness.q})")
        records += [_conflict_record("violation", v.dist, v.witness, trial=v.trial)
                    for v in search.violations]

    if args.report:
        _write(args.report, "".join(json.dumps(rec) + "\n" for rec in records))
    return EXIT_OK


def _conflict_record(kind: str, dist, witness, **extra) -> dict:
    """The report record of a distribution whose surrogate minimizer
    misorders the pair ``witness`` names; ``extra`` keys follow ``type``."""
    return {"type": kind, **extra, "atoms": dist.atoms.tolist(), "probs": dist.probs.tolist(),
            "pair": [witness.p, witness.q], "delta_products": list(witness.delta_products),
            "phi_products": list(witness.phi_products)}


def _fmt_atom(atom: np.ndarray) -> str:
    return "(" + ",".join("+1" if v > 0 else "-1" for v in atom) + ")"


def cmd_bounds(args) -> int:
    cfg = _experiment(args)
    if not 0.0 < args.delta < 1.0:
        raise ConfigError(f"--delta must lie in (0, 1), not {args.delta!r}")
    model = load_model(args.model)
    data = _load_dataset(cfg.datasets[0], cfg.label_count)
    prepared, _ = prepare_data(data)
    if prepared.d != model.d:
        raise ConfigError(f"model expects d={model.d} features but dataset provides "
                          f"{prepared.d}, bias included")
    if prepared.c != model.c:
        raise ConfigError(f"model scores c={model.c} labels but dataset provides {prepared.c}")
    z_max, inputs = bounds_mod.model_bound_inputs(model, prepared, args.delta, args.log2)
    report = evaluate(model, prepared)
    shared = inputs[bounds_mod.BOUNDED_SCHEMES[0]]

    print(f"model {args.model}: algorithm {model.algorithm}, base {model.base}, "
          f"lambda {model.lam:g}")
    print(f"dataset {data.name}: n={prepared.n} d={prepared.d} c={prepared.c}")
    print(f"empirical ranking loss: {report.ranking_loss:.6f}")
    print(f"margin domain |z| <= {z_max:.4g} gives rho={shared.rho:.6g}, B={shared.B:.6g} "
          f"(plug-in weight_norm={shared.weight_norm:.6g}, "
          f"feature_norm={shared.feature_norm:.6g})")
    log_note = "log2" if args.log2 else "natural log"
    print(f"confidence delta={args.delta:g} ({log_note})")
    for which, inp in inputs.items():
        value = bounds_mod.THEOREM_BOUNDS[which](inp)
        print(f"  {which}: empirical risk {inp.empirical_risk:.6f} -> "
              f"ranking-loss bound {value:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    _write_report(Path(args.outdir), "report", args.results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing: a flag that sets an ExperimentConfig field has the field
# name as its dest and no default (its parser defaults to SUPPRESS), so
# _experiment sees only the flags given
# ---------------------------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--labels", dest="label_count", help="label column count of a CSV file")


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    """The dataset, algorithm and solver flags of ``train`` and ``cv``."""
    p.add_argument("--data", dest="datasets", nargs=1, required=True, metavar="PATH")
    p.add_argument("--algo", dest="algos", nargs=1, required=True, metavar="ALGO")
    p.add_argument("--base", help="base loss (default logistic)")
    p.add_argument("--seed")
    p.add_argument("--smoke", action="store_true")
    _add_dataset_args(p)
    p.add_argument("--epochs", dest="outer_epochs", help="outer epochs")
    p.add_argument("--tolerance", help="relative objective change to stop at")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The cross-validation flags of ``cv`` and ``bench``."""
    p.add_argument("--grid", dest="lambda_grid", help="comma-separated lambda values")
    p.add_argument("--folds")
    p.add_argument("--workers", help="processes for the task grid (MLRANK_THREADS overrides)")
    p.add_argument("--select-on-test-folds", action="store_true",
                   help="score the grid on the test folds instead of a nested holdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlrank",
                                     description="multi-label ranking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="rewrite a dataset between formats")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("sparse", "csv"), required=True)
    p.add_argument("--labels", type=int, default=None, help="label column count of a CSV file")
    p.add_argument("--keep-trivial", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="fit one model", argument_default=argparse.SUPPRESS)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--trace", default=None, help="optional objective trace CSV")
    _add_fit_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="cross-validated lambda selection",
                       argument_default=argparse.SUPPRESS)
    _add_grid_args(p)
    p.add_argument("--csv", default=None, help="write per-fold metrics CSV")
    _add_fit_args(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("bench", help="benchmark grid over datasets and algorithms",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help="experiment config file")
    p.add_argument("--data", dest="datasets", nargs="+", metavar="PATH", help="dataset paths")
    p.add_argument("--algos", help="comma-separated algorithm ids")
    _add_grid_args(p)
    _add_dataset_args(p)
    p.add_argument("--base")
    p.add_argument("--seed")
    p.add_argument("--outdir")
    p.add_argument("--smoke", action="store_true",
                   help="cap epochs and grid for a fast completeness check")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("consistency", help="consistency analysis for a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--base", default="logistic")
    p.add_argument("--c", type=int, default=4, help="number of labels")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", type=int, default=5, help="violations to print")
    p.add_argument("--report", default=None, help="JSON-lines verdict file")
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("bounds", help="deviation bounds for a trained model",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--model", required=True)
    p.add_argument("--data", dest="datasets", nargs=1, required=True, metavar="PATH")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--log2", action="store_true", default=False,
                   help="use log base 2 in the confidence term")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="summary table and charts from bench CSVs")
    p.add_argument("results", nargs="+", help="bench per-dataset CSV files")
    p.add_argument("--outdir", default="results")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout, the one pipe mlrank writes, stopped early, as
        # ``| head`` does: end quietly, with stdout pointed at /dev/null for
        # the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, DatasetFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteObjectiveError as exc:
        print(f"error: training aborted: {exc}", file=sys.stderr)
        return EXIT_TASK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
