"""Declarative runner-backed sweeps.

Every runner-backed paper artefact is the same pipeline: build a grid
of :class:`~repro.experiments.runner.RunSpec`s, run it, group the cells
into rows, fold each row into columns, print a table.  An
:class:`Experiment` declares what differs -- cell, axes, columns with
their paper values, verdict checks -- and :meth:`Experiment.run` does
the rest.  The CLI builds one subcommand per declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.results import ResultTable
from repro.experiments.runner import GridTelemetry, RunnerOptions, grid


@dataclass
class Group:
    """What a column fold sees: one row's cells and the rows before it.

    ``n`` divides per-load means: the requested loads per point for a
    strict sweep, the surviving cells (at least 1) otherwise.  ``row``
    holds the row's axis values, ``n_ok``, ``n_cells`` and the columns
    folded so far.  ``runner`` and ``telemetry`` serve a fold that runs
    a grid of its own (Table II's natural-gap profile).
    """

    cells: List[Dict[str, Any]]
    n: int
    row: SimpleNamespace
    rows: List[SimpleNamespace]
    runner: RunnerOptions
    telemetry: GridTelemetry


@dataclass(frozen=True)
class Column:
    """One row attribute, how it is folded, and how it is shown."""

    #: None keeps the attribute off the table.
    header: Optional[str]
    attr: str
    #: None when ``attr`` is an axis.
    fold: Optional[Callable[[Group], Any]] = None
    show: Callable[[Any], Any] = lambda value: value
    #: Shown in a following column: a mapping keyed by the row's first
    #: axis ("-" when absent), or a sequence for a list-valued column.
    paper: Any = None
    paper_header: str = "paper"


@dataclass(frozen=True)
class Check:
    """One greppable verdict line over some of a sweep's rows."""

    label: str
    #: ``(row, settings)``: is the row in the check's scope?
    scope: Callable[[Any, Any], bool]
    #: ``(passed, detail)`` over the rows in scope.
    judge: Callable[[List[Any]], Tuple[bool, str]]
    #: For a pass and a failure; a scope with no successful cell proves
    #: nothing and prints ``EMPTY``.
    words: Tuple[str, str] = ("ALL", "MISSING")


@dataclass(frozen=True)
class Experiment:
    """A runner-backed sweep: grid axes, cell, fold and paper reference."""

    #: CLI subcommand, its help text and its default ``-n``.
    command: str
    help: str
    default_n: int
    title: Callable[[SimpleNamespace], str]
    #: Dotted path of the cell function.
    cell: str
    #: The options a run may set, with their defaults; ``count`` names
    #: the one that counts loads per point.
    defaults: Mapping[str, Any]
    #: :func:`~repro.experiments.runner.grid` axes from the settings
    #: (the options plus ``base_seed`` and its ``seeds`` range).
    axes: Callable[[SimpleNamespace], Dict[str, Any]]
    #: Axes that key a table row.
    rows: Tuple[str, ...]
    columns: Tuple[Column, ...]
    #: False: a failed cell goes to ``failures`` instead of aborting.
    strict: bool = True
    #: Order rows by key rather than by first appearance.
    sort_rows: bool = False
    #: Render list-valued columns one table line per element.
    transpose: bool = False
    checks: Tuple[Check, ...] = ()
    #: ``(option, choices)`` pairs that get a CLI flag.
    flags: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    count: str = "n_per_point"

    def run(self, *, base_seed: int = 0,
            runner: RunnerOptions = RunnerOptions(),
            **options: Any) -> "ExperimentResult":
        """Build the grid, run it, fold it into rows."""
        unknown = sorted(set(options) - set(self.defaults))
        if unknown:
            raise TypeError(f"{self.command}: unknown options {unknown}")
        settings = SimpleNamespace(**{**self.defaults, **options})
        n = getattr(settings, self.count)
        settings.base_seed = base_seed
        settings.seeds = range(base_seed, base_seed + n)
        results = runner.run(grid(self.cell, **self.axes(settings)),
                             strict=self.strict)
        telemetry = GridTelemetry().add(results)

        ok: Dict[tuple, List[Dict[str, Any]]] = {}
        attempted: Dict[tuple, int] = {}
        failures: List[str] = []
        for result in results:
            params = result.spec.kwargs()
            key = tuple(params[axis] for axis in self.rows)
            attempted[key] = attempted.get(key, 0) + 1
            cells = ok.setdefault(key, [])
            if result.failed:
                failures.append(" ".join(
                    [f"{axis}={value}" for axis, value in zip(self.rows, key)]
                    + [f"seed={result.spec.seed}: {result.error}"]))
            else:
                cells.append(result.metrics)

        points: List[SimpleNamespace] = []
        for key in (sorted(attempted) if self.sort_rows else attempted):
            cells = ok[key]
            row = SimpleNamespace(**dict(zip(self.rows, key)),
                                  n_ok=len(cells), n_cells=attempted[key])
            group = Group(cells=cells,
                          n=n if self.strict else max(1, len(cells)),
                          row=row, rows=points, runner=runner,
                          telemetry=telemetry)
            for column in self.columns:
                if column.fold is not None:
                    setattr(row, column.attr, column.fold(group))
            points.append(row)
        return ExperimentResult(self, settings, points, failures, telemetry)


@dataclass
class ExperimentResult:
    """A finished sweep: its rows, failed cells and run telemetry."""

    experiment: Experiment
    settings: SimpleNamespace
    points: List[SimpleNamespace]
    #: ``"axis=value ... seed=S: reason"`` per permanently failed cell.
    failures: List[str]
    telemetry: GridTelemetry

    def table(self) -> ResultTable:
        experiment = self.experiment
        shown = [c for c in experiment.columns if c.header is not None]
        headers = [header for c in shown for header in (
            [c.header] if c.paper is None else [c.header, c.paper_header])]
        table = ResultTable(experiment.title(self.settings), headers)
        for row in self.points:
            cells = []
            for column in shown:
                cells.append(column.show(getattr(row, column.attr)))
                if isinstance(column.paper, Mapping):
                    key = getattr(row, experiment.rows[0])
                    cells.append(column.paper.get(key, "-"))
                elif column.paper is not None:
                    cells.append(column.paper)
            for line in (zip(*cells) if experiment.transpose else [cells]):
                table.add_row(*line)
        return table

    def verdict_lines(self) -> List[str]:
        """One ``<command>: <label>: <word> (<detail>)`` line per check."""
        lines = []
        for check in self.experiment.checks:
            rows = [row for row in self.points
                    if check.scope(row, self.settings)]
            passed, detail = check.judge(rows)
            word = (check.words[0 if passed else 1]
                    if any(row.n_ok for row in rows) else "EMPTY")
            lines.append(f"{self.experiment.command}: {check.label}: "
                         f"{word} ({detail})")
        return lines


def pct(metric: str) -> Callable[[Group], float]:
    """Fold: percentage of loads where ``metric`` is true."""
    return lambda g: 100.0 * sum(c[metric] for c in g.cells) / g.n


def mean(metric: str) -> Callable[[Group], float]:
    """Fold: ``metric`` per load."""
    return lambda g: sum(c[metric] for c in g.cells) / g.n


def mean_present(metric: str, default: Any) -> Callable[[Group], Any]:
    """Fold: mean of ``metric`` over the cells that report it."""
    def fold(g: Group) -> Any:
        values = [c[metric] for c in g.cells if c[metric] is not None]
        return sum(values) / len(values) if values else default
    return fold


def observed_pct(metric: str) -> Callable[[Group], float]:
    """Fold: percentage of the loads that saw the object of interest."""
    return lambda g: (100.0 * sum(c[metric] for c in g.cells)
                      / max(1, sum(c["observed"] for c in g.cells)))


#: The "ok cells" column of a lenient sweep.
OK_CELLS = Column("ok cells", "ok_cells",
                  lambda g: f"{g.row.n_ok}/{g.row.n_cells}")
