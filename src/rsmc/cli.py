"""Command-line front end.

Subcommands: ``detect`` (full pipeline: graph -> RSM -> refine -> maximal
communities), ``matrix`` (emit the RSM matrix only), ``validate-rsm``,
``validate-similarity``, and ``datasets``. Exit codes: 0 success, 1 a
validation command found violations, 2 input error (an input too large for
memory too), 3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from .community import (
    REFINE_TOL,
    Community,
    EffectiveEdgeGraph,
    communities_to_csv,
    communities_to_dot,
    communities_to_json,
    count_maximal_communities,
    enumerate_maximal_communities,
    refine,
)
from .datasets import builtin_dataset_names, load_builtin_dataset
from .errors import InvalidSpecError, NumericalError, ParseError, RsmcError
from .graph import Graph, is_ascii_number, parse_edge_list
from .rsm import (
    AXIOM_TOL,
    RsmMatrix,
    erf_matrix,
    rsm_from_csv,
    rsm_from_json,
    rsm_to_csv,
    rsm_to_json,
    sdf_matrix,
    validate_rsm,
)
from .similarity import (
    SimilaritySpec,
    combine_similarities,
    load_similarity_parts,
    parse_similarity_json,
)


def _check_graph_source(input_path: str | None, builtin: str | None, directed: bool) -> None:
    """The rules every command taking a graph shares."""
    if input_path is not None and builtin is not None:
        raise InvalidSpecError("give either --input or --builtin, not both")
    if directed and input_path is None:
        raise InvalidSpecError("--directed needs an --input graph; builtin datasets are undirected")


@dataclass(frozen=True)
class PipelineConfig:
    """One detection run: where the graph comes from, which RSM, what threshold.

    Exactly one RSM source must be given, each path that is not None counting:
    a graph (file or builtin) for rsm "sdf"/"erf", a similarity spec file for
    rsm "similarity", or a matrix file for rsm "external".
    """

    rsm: str
    epsilon: float
    tol: float = REFINE_TOL
    input_path: str | None = None
    builtin: str | None = None
    directed: bool = False
    similarity_spec_path: str | None = None
    matrix_path: str | None = None

    def __post_init__(self):
        _check_graph_source(self.input_path, self.builtin, self.directed)
        kinds = {"sdf": "graph", "erf": "graph", "similarity": "spec", "external": "matrix"}
        need = kinds.get(self.rsm)
        if need is None:
            raise InvalidSpecError(f"unknown rsm kind {self.rsm!r}")
        given = {source for source, path in (
            ("graph", self.input_path), ("graph", self.builtin),
            ("spec", self.similarity_spec_path), ("matrix", self.matrix_path),
        ) if path is not None}
        if given != {need}:
            raise InvalidSpecError(f"rsm {self.rsm!r} reads a {need} and no other source; "
                                   f"given: {', '.join(sorted(given)) or 'none'}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidSpecError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidSpecError(f"tol must be a finite number >= 0, got {self.tol}")


@dataclass(frozen=True)
class PipelineResult:
    matrix: RsmMatrix
    eeg: EffectiveEdgeGraph
    communities: list[Community]
    labels: list[str]
    graph: Graph | None
    wall_time: float

    @property
    def community_count(self) -> int:
        return len(self.communities)


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which would otherwise start the first token
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_matrix_file(path: str) -> RsmMatrix:
    text = _read(path)
    if text.lstrip().startswith("{"):
        return rsm_from_json(text)
    return rsm_from_csv(text)


def _load_graph(input_path: str | None, builtin: str | None, directed: bool) -> Graph | None:
    if builtin is not None:
        return load_builtin_dataset(builtin)
    if input_path is not None:
        return parse_edge_list(_read(input_path), directed=directed)
    return None


def resolve_rsm(cfg: PipelineConfig) -> tuple[RsmMatrix, list[str], Graph | None]:
    """Produce the RSM matrix and vertex labels a config asks for."""
    if cfg.rsm in ("sdf", "erf"):
        g = _load_graph(cfg.input_path, cfg.builtin, cfg.directed)
        m = sdf_matrix(g) if cfg.rsm == "sdf" else erf_matrix(g)
        return m, list(g.labels), g
    if cfg.rsm == "similarity":
        spec = parse_similarity_json(_read(cfg.similarity_spec_path))
        return combine_similarities(spec), list(spec.vertex_labels), None
    m = _load_matrix_file(cfg.matrix_path)
    return m, [str(i) for i in range(m.n)], None


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Parse, build the RSM, refine at (epsilon, tol), enumerate maximal communities."""
    start = time.perf_counter()
    m, labels, g = resolve_rsm(cfg)
    eeg = refine(m, cfg.epsilon, cfg.tol)
    communities = enumerate_maximal_communities(eeg)
    return PipelineResult(
        matrix=m,
        eeg=eeg,
        communities=communities,
        labels=labels,
        graph=g,
        wall_time=time.perf_counter() - start,
    )


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


#: Largest number of epsilons one ``--epsilon-sweep`` may ask for.
MAX_SWEEP_EPSILONS = 1_000_000


def number(text: str) -> float:
    """``float(text)`` of an ASCII number without ``_`` separators, the spelling files take."""
    if not is_ascii_number(text):
        raise ValueError(f"bad number {text!r}")
    return float(text)


def _parse_sweep(arg: str) -> list[float]:
    parts = arg.split(":")
    if len(parts) != 3:
        raise ParseError(f"sweep must look like lo:hi:step, got {arg!r}")
    try:
        lo, hi, step = (number(p) for p in parts)
    except ValueError:
        raise ParseError(f"sweep bounds must be numbers, got {arg!r}") from None
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ParseError(f"sweep bounds must be finite, got {arg!r}")
    if not (lo >= 0 and hi >= lo and step > 0):
        raise ParseError(f"sweep needs 0 <= lo <= hi and step > 0, got {arg!r}")
    if (hi - lo) / step >= MAX_SWEEP_EPSILONS:
        raise ParseError(f"sweep {arg!r} has more than {MAX_SWEEP_EPSILONS} epsilons")
    values = []
    k = 0
    while True:
        eps = lo + k * step
        if eps > hi + step * 1e-9:
            break
        values.append(min(eps, hi))
        k += 1
    return values


def _graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", metavar="FILE", help="edge-list file (src<TAB>dst[<TAB>weight])")
    sub.add_argument("--builtin", metavar="NAME", help="bundled dataset name (see: rsmc datasets)")
    sub.add_argument("--directed", action="store_true", help="treat the edge list as directed")


def _rsm_args(sub: argparse.ArgumentParser) -> None:
    _graph_args(sub)
    sub.add_argument("--rsm", choices=("sdf", "erf"), default=None,
                     help="relation strength from shortest paths (sdf) or "
                          "effective resistance (erf)")
    sub.add_argument("--similarity-spec", metavar="FILE",
                     help="similarity-network spec JSON as the relation source")
    sub.add_argument("--matrix", metavar="FILE",
                     help="externally computed matrix (CSV or JSON) as the relation source")


def _config_from(args: argparse.Namespace, epsilon: float, tol: float) -> PipelineConfig:
    kind = (args.rsm if args.rsm is not None
            else "similarity" if args.similarity_spec is not None
            else "external" if args.matrix is not None
            else None)
    if kind is None:
        raise InvalidSpecError(
            "specify a relation source: a graph with --rsm, --similarity-spec, or --matrix"
        )
    return PipelineConfig(
        rsm=kind,
        epsilon=epsilon,
        tol=tol,
        input_path=args.input,
        builtin=args.builtin,
        directed=args.directed,
        similarity_spec_path=args.similarity_spec,
        matrix_path=args.matrix,
    )


def cmd_detect(args: argparse.Namespace) -> int:
    if (args.epsilon is None) == (args.epsilon_sweep is None):
        raise InvalidSpecError("exactly one of --epsilon / --epsilon-sweep is required")

    if args.epsilon_sweep is not None:
        if args.format not in (None, "csv"):
            raise InvalidSpecError(f"--epsilon-sweep writes csv, not --format {args.format}")
        sweep = _parse_sweep(args.epsilon_sweep)
        start = time.perf_counter()
        cfg = _config_from(args, epsilon=sweep[0], tol=args.tol)
        m, _, g = resolve_rsm(cfg)
        counts = count_maximal_communities(m, sweep, cfg.tol)
        lines = ["epsilon,communities"] + [f"{eps:g},{c}" for eps, c in zip(sweep, counts)]
        doc = "\n".join(lines) + "\n"
        outcome = (f"{min(counts)} to {max(counts)} maximal communities "
                   f"over {len(sweep)} epsilons (tol={cfg.tol:g})")
        seconds = time.perf_counter() - start
    else:
        cfg = _config_from(args, epsilon=args.epsilon, tol=args.tol)
        result = run_pipeline(cfg)
        m, g = result.matrix, result.graph
        if args.format == "dot":
            doc = communities_to_dot(result.eeg, result.communities, result.labels)
        elif args.format == "csv":
            doc = communities_to_csv(result.communities, result.labels)
        else:
            doc = communities_to_json(result.communities, result.labels)
        outcome = (f"{result.community_count} maximal communities "
                   f"(epsilon={cfg.epsilon:g}, tol={cfg.tol:g})")
        seconds = result.wall_time

    _write_out(doc, args.out)
    edges = f", {len(g.weights)} edges" if g is not None else ""  # only a graph has edges
    print(f"{m.source_rsm} rsm on {m.n} vertices{edges} -> {outcome} in {seconds:.3f}s",
          file=sys.stderr)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    cfg = _config_from(args, epsilon=0.0, tol=0.0)
    m, _, _ = resolve_rsm(cfg)
    doc = rsm_to_json(m) if args.format == "json" else rsm_to_csv(m)
    _write_out(doc, args.out)
    return 0


def cmd_validate_rsm(args: argparse.Namespace) -> int:
    _check_graph_source(args.input, args.builtin, args.directed)
    m = _load_matrix_file(args.matrix)
    report = validate_rsm(m, _load_graph(args.input, args.builtin, args.directed), tol=args.tol)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed else 1


def cmd_validate_similarity(args: argparse.Namespace) -> int:
    props, tables, weights, assignments = load_similarity_parts(_read(args.spec))
    failed = False
    for prop in props:
        report = tables[prop].report
        axioms_ok = report.nonnegativity and report.coincidence and report.symmetry
        failed = failed or not axioms_ok
        status = "pass" if axioms_ok else "FAIL"
        triangle_note = "" if report.triangle else " (triangle inequality violated)"
        print(f"table {prop!r}: {status}{triangle_note}")
        for v in report.violations:
            print(f"  {v}")
    try:
        SimilaritySpec(properties=props, tables=tables, weights=weights,
                       assignments=assignments)
    except InvalidSpecError as exc:
        print(f"spec: FAIL ({exc})")
        return 1
    print("spec: pass")
    return 1 if failed else 0


def cmd_datasets(args: argparse.Namespace) -> int:
    for name in builtin_dataset_names():
        g = load_builtin_dataset(name)
        print(f"{name}\t{g.vertex_count} vertices, {len(g.weights)} edges")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error:`` line and exit 2; subcommand parsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rsmc",
        description="Community detection from relation strength matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    detect = subs.add_parser("detect", help="find all maximal communities")
    _rsm_args(detect)
    detect.add_argument("--epsilon", type=number, default=None,
                        help="community parameter: pairs relate iff strength <= epsilon")
    detect.add_argument("--epsilon-sweep", metavar="LO:HI:STEP", default=None,
                        help="emit community counts per epsilon as CSV instead")
    detect.add_argument("--tol", type=number, default=REFINE_TOL,
                        help="additive comparison slack (default %(default)g)")
    detect.add_argument("--format", choices=("json", "dot", "csv"), default=None,
                        help="output format (default json; a sweep writes csv only)")
    detect.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    detect.set_defaults(func=cmd_detect)

    matrix = subs.add_parser("matrix", help="emit the relation strength matrix only")
    _rsm_args(matrix)
    matrix.add_argument("--format", choices=("csv", "json"), default="csv")
    matrix.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    matrix.set_defaults(func=cmd_matrix)

    vrsm = subs.add_parser("validate-rsm", help="check a matrix against the RSM axioms")
    vrsm.add_argument("--matrix", metavar="FILE", required=True,
                      help="matrix file (CSV or JSON)")
    _graph_args(vrsm)
    vrsm.add_argument("--tol", type=number, default=AXIOM_TOL,
                      help="axiom tolerance (default %(default)g)")
    vrsm.set_defaults(func=cmd_validate_rsm)

    vsim = subs.add_parser("validate-similarity",
                           help="check a similarity spec's case tables")
    vsim.add_argument("--spec", metavar="FILE", required=True,
                      help="similarity spec JSON file")
    vsim.set_defaults(func=cmd_validate_similarity)

    ds = subs.add_parser("datasets", help="list bundled datasets")
    ds.set_defaults(func=cmd_datasets)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RsmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
