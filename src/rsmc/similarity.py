"""Relation strength for similarity networks.

Vertices are described by properties; each property has a finite case set and
a table of pairwise case dissimilarities. The combined relation strength of
two vertices is the weighted sum of their per-property table entries. The
result is an ordinary RsmMatrix and can be fed to refinement like any other.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, NumericalError, ParseError
from .rsm import SIMILARITY_TAG, RsmMatrix, Violation, real_array, triangle_breaks, violations_at

log = logging.getLogger(__name__)

#: Slack of the triangle check that judges every case table.
TRIANGLE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class CaseTable:
    """Dissimilarity table over one property's case set.

    values[i][j] is the dissimilarity of cases[i] and cases[j]. Construction
    enforces structure (square, finite, matching the case list) and raises
    InvalidSpecError on any failure; it then judges the entries once against
    the similarity axioms and keeps the result as ``report``.
    """

    cases: tuple[str, ...]
    values: np.ndarray
    report: TableReport = field(init=False, repr=False)

    def __post_init__(self):
        cases = tuple(str(c) for c in self.cases)
        if not cases:
            raise InvalidSpecError("a case table needs at least one case")
        if len(set(cases)) != len(cases):
            raise InvalidSpecError(f"duplicate case names in {cases}")
        try:
            arr = real_array(self.values)
        except OverflowError:
            raise InvalidSpecError("table holds an integer too large for a float") from None
        except (TypeError, ValueError):
            raise InvalidSpecError("table entries must be reals in rows of one length") from None
        if arr.shape != (len(cases), len(cases)):
            raise InvalidSpecError(
                f"table shape {arr.shape} does not match {len(cases)} case(s)"
            )
        if not np.isfinite(arr).all():
            raise InvalidSpecError("table entries must be finite reals")
        arr.setflags(write=False)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "report", _judge(cases, arr))

    def case_index(self, case: str) -> int:
        try:
            return self.cases.index(case)
        except ValueError:
            raise InvalidSpecError(f"unknown case {case!r}; expected one of {self.cases}") from None


@dataclass(frozen=True)
class TableReport:
    """Axiom report for one case table.

    The three similarity axioms are non-negativity, coincidence (zero exactly
    on the diagonal), and symmetry. The triangle inequality is reported too:
    it is not an axiom of a single table, but combined vertex strengths only
    form a pseudometric when every table respects it.
    """

    nonnegativity: bool
    coincidence: bool
    symmetry: bool
    triangle: bool
    violations: tuple[Violation, ...]

    @property
    def all_passed(self) -> bool:
        return self.nonnegativity and self.coincidence and self.symmetry and self.triangle


def _judge(names: tuple[str, ...], vals: np.ndarray) -> TableReport:
    """Report-only check of a case table's entries against the similarity axioms."""
    negative = violations_at("negative", vals < 0, vals, names)
    diag = np.diag(vals)
    diagonal = violations_at("diagonal-nonzero", diag != 0.0, diag, names)
    zero_off = (vals == 0.0) & ~np.eye(len(names), dtype=bool)
    offdiagonal = violations_at("offdiagonal-zero", zero_off, 0.0, names)
    with np.errstate(over="ignore"):  # an overflowed difference is +inf, the right gap
        gap = np.abs(vals - vals.T)
    asymmetry = violations_at("asymmetry", np.triu(vals != vals.T, k=1), gap, names)
    triangle = [Violation("triangle", (names[i], names[k], names[j]), excess)
                for i, k, j, excess in triangle_breaks(vals, TRIANGLE_SLACK)]
    return TableReport(
        nonnegativity=not negative,
        coincidence=not (diagonal or offdiagonal),
        symmetry=not asymmetry,
        triangle=not triangle,
        violations=tuple(negative + diagonal + offdiagonal + asymmetry + triangle),
    )


@dataclass(frozen=True, eq=False)
class SimilaritySpec:
    """Everything needed to build a similarity RSM.

    ``assignments`` maps vertex label to {property: case}; its insertion
    order fixes the vertex indexing of the resulting matrix. Construction
    enforces the hard invariants (table axioms except off-diagonal zeros,
    weight signs, complete assignments) and raises InvalidSpecError on any
    failure. Off-diagonal zero table entries and triangle violations are
    legal here; the builder warns about their downstream effects instead.
    """

    properties: tuple[str, ...]
    tables: dict[str, CaseTable]
    weights: tuple[float, ...]
    assignments: dict[str, dict[str, str]] = field(repr=False)

    def __post_init__(self):
        props = tuple(str(p) for p in self.properties)
        if not props:
            raise InvalidSpecError("at least one property is required")
        if len(set(props)) != len(props):
            raise InvalidSpecError(f"duplicate property names in {props}")
        object.__setattr__(self, "properties", props)

        if set(self.tables) != set(props):
            raise InvalidSpecError(
                f"tables keyed by {sorted(self.tables)} but properties are {sorted(props)}"
            )
        for prop in props:
            if not isinstance(self.tables[prop], CaseTable):
                raise InvalidSpecError(f"table for {prop!r} must be a CaseTable")
            hard = [v for v in self.tables[prop].report.violations
                    if v.kind in ("negative", "diagonal-nonzero", "asymmetry")]
            if hard:
                first = hard[0]
                raise InvalidSpecError(
                    f"table for {prop!r} violates {first.kind} at {first.where} "
                    f"({len(hard)} violation(s) total)"
                )

        try:
            weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError, OverflowError):
            raise InvalidSpecError("weights must be numbers that fit a float") from None
        if len(weights) != len(props):
            raise InvalidSpecError(
                f"{len(weights)} weight(s) for {len(props)} property(ies)"
            )
        for w in weights:
            if not (np.isfinite(w) and w >= 0):
                raise InvalidSpecError(f"weights must be finite and nonnegative, got {w}")
        if not any(w > 0 for w in weights):
            raise InvalidSpecError("at least one weight must be positive")
        object.__setattr__(self, "weights", weights)

        if not isinstance(self.assignments, Mapping) or not all(
                isinstance(cases, Mapping) for cases in self.assignments.values()):
            raise InvalidSpecError(
                "assignments must map vertex labels to {property: case} mappings"
            )
        if not self.assignments:
            raise InvalidSpecError("at least one vertex assignment is required")
        for label, cases in self.assignments.items():
            if set(cases) != set(props):
                raise InvalidSpecError(
                    f"vertex {label!r} must assign exactly the declared properties; "
                    f"got {sorted(cases)}"
                )
            for prop in props:
                self.tables[prop].case_index(cases[prop])

    @property
    def vertex_labels(self) -> tuple[str, ...]:
        return tuple(self.assignments)


def combine_similarities(spec: SimilaritySpec) -> RsmMatrix:
    """Weighted sum of per-property case dissimilarities for every vertex pair.

    values[u][v] = sum over properties P of weight_P * table_P[case of u,
    case of v]. The matrix is finite, symmetric when the tables are, and has
    a zero diagonal; a sum too large for a float raises NumericalError.
    Distinct vertices with identical effective assignments collapse to
    strength 0; a WARNING on the ``rsmc.similarity`` logger names those
    pairs, as it does tables that break the triangle inequality (either way
    the combined matrix is no longer guaranteed to be a pseudometric).
    """
    labels = spec.vertex_labels
    n = len(labels)
    values = np.zeros((n, n))
    try:
        with np.errstate(over="raise"):
            for prop, weight in zip(spec.properties, spec.weights):
                table = spec.tables[prop]
                idx = np.array([table.case_index(spec.assignments[label][prop])
                                for label in labels])
                values += weight * table.values[np.ix_(idx, idx)]
    except FloatingPointError:
        raise NumericalError("a combined relation strength is too large for a float") from None

    shaky_tables = [prop for prop in spec.properties if not spec.tables[prop].report.triangle]
    if shaky_tables:
        log.warning("case table(s) %s break the triangle inequality; "
                    "the combined matrix may not be a pseudometric", shaky_tables)
    rows, cols = np.nonzero(np.triu(values == 0.0, k=1))
    collapsed = [(labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    if collapsed:
        log.warning("%d vertex pair(s) collapse to zero relation strength: %s",
                    len(collapsed), collapsed)
    values.setflags(write=False)  # fresh, so RsmMatrix need not copy it
    return RsmMatrix(values=values, source_rsm=SIMILARITY_TAG)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in similarity JSON")
        seen[key] = value
    return seen


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ParseError(f"{what} holds an integer too large for a float") from None
    except ValueError:
        raise ParseError(f"{what} has rows of different lengths") from None


def load_similarity_parts(text: str):
    """Parse the JSON document shape without judging its semantics.

    Returns (properties, tables, weights, assignments) with CaseTable values
    and float weights; raises ParseError on malformed JSON, wrong shapes,
    ragged tables, or an integer too large for a float.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad similarity JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("similarity JSON must be an object")
    missing = [k for k in ("properties", "cases", "tables", "weights", "assignments")
               if k not in doc]
    if missing:
        raise ParseError(f"similarity JSON is missing key(s) {missing}")

    props = doc["properties"]
    cases = doc["cases"]
    raw_tables = doc["tables"]
    weights = doc["weights"]
    assignments = doc["assignments"]
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise ParseError('"properties" must be an array of strings')
    if not isinstance(cases, dict) or not isinstance(raw_tables, dict):
        raise ParseError('"cases" and "tables" must be objects keyed by property')
    if not isinstance(weights, list) or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
    ):
        raise ParseError('"weights" must be an array of numbers')
    if not isinstance(assignments, dict) or not all(
        isinstance(v, dict) and all(isinstance(c, str) for c in v.values())
        for v in assignments.values()
    ):
        raise ParseError('"assignments" must map vertex labels to {property: case} objects')
    if set(cases) != set(props) or set(raw_tables) != set(props):
        raise ParseError('"cases" and "tables" must have exactly one entry per property')

    tables = {}
    for prop in props:
        case_list = cases[prop]
        if not isinstance(case_list, list) or not all(isinstance(c, str) for c in case_list):
            raise ParseError(f'"cases" for {prop!r} must be an array of strings')
        rows = raw_tables[prop]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                        for v in r)
            for r in rows
        ):
            raise ParseError(f'"tables" for {prop!r} must be a numeric matrix')
        values = _float_array(rows, f'"tables" for {prop!r}')
        tables[prop] = CaseTable(cases=tuple(case_list), values=values)

    return (
        tuple(props),
        tables,
        tuple(_float_array(weights, '"weights"').tolist()),
        {str(k): dict(v) for k, v in assignments.items()},
    )


def parse_similarity_json(text: str) -> SimilaritySpec:
    """Load a SimilaritySpec from its JSON document form.

    Expected shape: {"properties": [...], "cases": {P: [...]},
    "tables": {P: [[...]]}, "weights": [...], "assignments":
    {vertexLabel: {P: case}}}. Malformed JSON or wrong shapes raise
    ParseError; semantically invalid specs raise InvalidSpecError.
    """
    props, tables, weights, assignments = load_similarity_parts(text)
    return SimilaritySpec(
        properties=props, tables=tables, weights=weights, assignments=assignments
    )
