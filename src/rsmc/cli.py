"""Command-line front end.

Subcommands: ``detect`` (full pipeline: graph -> RSM -> refine -> maximal
communities), ``matrix`` (emit the RSM matrix only), ``validate-rsm``,
``validate-similarity``, and ``datasets``. Exit codes: 0 success, 1 a
validation command found violations, 2 input error, 3 numerical error.
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
    enumerate_maximal_communities,
    refine,
)
from .datasets import builtin_dataset_names, load_builtin_dataset
from .errors import InvalidSpecError, NumericalError, ParseError, RsmcError
from .graph import Graph, parse_edge_list
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
    validate_similarity_table,
)


@dataclass(frozen=True)
class PipelineConfig:
    """One detection run: where the graph comes from, which RSM, what threshold.

    Exactly one RSM source must be specified: a graph (file or builtin) for
    rsm "sdf"/"erf", a similarity spec file for rsm "similarity", or a matrix
    file for rsm "external".
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
        if self.rsm in ("sdf", "erf"):
            if self.similarity_spec_path or self.matrix_path:
                raise InvalidSpecError("graph-based rsm takes no spec/matrix file")
            if (self.input_path is None) == (self.builtin is None):
                raise InvalidSpecError(
                    f"rsm {self.rsm!r} needs exactly one graph source (input file or builtin)"
                )
        elif self.rsm == "similarity":
            if self.similarity_spec_path is None or self.input_path or self.builtin \
                    or self.matrix_path or self.directed:
                raise InvalidSpecError('rsm "similarity" needs a spec file and nothing else')
        elif self.rsm == "external":
            if self.matrix_path is None or self.input_path or self.builtin \
                    or self.similarity_spec_path or self.directed:
                raise InvalidSpecError('rsm "external" needs a matrix file and nothing else')
        else:
            raise InvalidSpecError(f"unknown rsm kind {self.rsm!r}")
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
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_matrix_file(path: str) -> RsmMatrix:
    text = _read(path)
    if text.lstrip().startswith("{"):
        return rsm_from_json(text)
    return rsm_from_csv(text)


def _load_graph(input_path: str | None, builtin: str | None, directed: bool) -> Graph:
    if builtin is not None:
        if directed:
            raise InvalidSpecError("builtin datasets are undirected; --directed needs --input")
        return load_builtin_dataset(builtin)
    return parse_edge_list(_read(input_path), directed=directed)


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


def _parse_sweep(arg: str) -> list[float]:
    parts = arg.split(":")
    if len(parts) != 3:
        raise ParseError(f"sweep must look like lo:hi:step, got {arg!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
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
    if args.rsm is not None:
        kind = args.rsm
    elif args.similarity_spec is not None:
        kind = "similarity"
    elif args.matrix is not None:
        kind = "external"
    else:
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
        sweep = _parse_sweep(args.epsilon_sweep)
        cfg = _config_from(args, epsilon=sweep[0], tol=args.tol)
        m, labels, _ = resolve_rsm(cfg)
        lines = ["epsilon,communities"]
        for eps in sweep:
            found = enumerate_maximal_communities(refine(m, eps, args.tol))
            lines.append(f"{eps:g},{len(found)}")
        _write_out("\n".join(lines) + "\n", args.out)
        return 0

    cfg = _config_from(args, epsilon=args.epsilon, tol=args.tol)
    result = run_pipeline(cfg)
    if args.format == "json":
        doc = communities_to_json(result.communities, result.labels)
    elif args.format == "dot":
        doc = communities_to_dot(result.eeg, result.communities, result.labels)
    else:
        doc = communities_to_csv(result.communities, result.labels)
    _write_out(doc, args.out)
    edge_count = len(result.graph.edges) if result.graph is not None else len(result.eeg.edges)
    print(
        f"{result.matrix.source_rsm} rsm on {result.matrix.n} vertices, "
        f"{edge_count} edges -> {result.community_count} maximal communities "
        f"(epsilon={cfg.epsilon:g}, tol={cfg.tol:g}) in {result.wall_time:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    cfg = _config_from(args, epsilon=0.0, tol=0.0)
    m, _, _ = resolve_rsm(cfg)
    doc = rsm_to_json(m) if args.format == "json" else rsm_to_csv(m)
    _write_out(doc, args.out)
    return 0


def cmd_validate_rsm(args: argparse.Namespace) -> int:
    m = _load_matrix_file(args.matrix)
    if args.input is not None and args.builtin is not None:
        raise InvalidSpecError("give either --input or --builtin, not both")
    g = None
    if args.input is not None or args.builtin is not None:
        g = _load_graph(args.input, args.builtin, args.directed)
    elif args.directed:
        raise InvalidSpecError("--directed needs a graph: give --input or --builtin")
    report = validate_rsm(m, g, tol=args.tol)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed else 1


def cmd_validate_similarity(args: argparse.Namespace) -> int:
    props, tables, weights, assignments = load_similarity_parts(_read(args.spec))
    failed = False
    for prop in props:
        report = validate_similarity_table(tables[prop])
        axioms_ok = report.nonnegativity and report.coincidence and report.symmetry
        failed = failed or not axioms_ok
        status = "pass" if axioms_ok else "FAIL"
        triangle_note = "" if report.triangle else " (triangle inequality violated)"
        print(f"table {prop!r}: {status}{triangle_note}")
        for v in report.violations:
            print(f"  {v.kind} at {v.where}: {v.magnitude:g}")
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
        print(f"{name}\t{g.vertex_count} vertices, {len(g.edges)} edges")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmc",
        description="Community detection from relation strength matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    detect = subs.add_parser("detect", help="find all maximal communities")
    _rsm_args(detect)
    detect.add_argument("--epsilon", type=float, default=None,
                        help="community parameter: pairs relate iff strength <= epsilon")
    detect.add_argument("--epsilon-sweep", metavar="LO:HI:STEP", default=None,
                        help="emit community counts per epsilon as CSV instead")
    detect.add_argument("--tol", type=float, default=REFINE_TOL,
                        help="additive comparison slack (default %(default)g)")
    detect.add_argument("--format", choices=("json", "dot", "csv"), default="json")
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
    vrsm.add_argument("--tol", type=float, default=AXIOM_TOL,
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


if __name__ == "__main__":
    sys.exit(main())
