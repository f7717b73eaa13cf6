"""Curated catalog of finite-group models for the Clifford-theory lab.

Each entry fixes a group G, a normal subgroup N with abelian quotient,
an inducing subgroup Jt carrying an irreducible representation, and an
irreducible summand of its restriction to J = Jt ∩ N.  The entries are
chosen to cover every code path: multiplicity 1 and higher, orbit size
1 and higher, inducing subgroups both equal to and smaller than G,
trivial and nontrivial twist groups, constituents of dimension above 1,
and models that fail the hypotheses of the conditional checks (those
must come out SKIPPED, not wrong).

Entries serialize to JSON: groups as multiplication tables (permutation
generators are also accepted on input), subgroups as element lists,
matrices as row-major lists of cyclotomic coefficient vectors.
Evaluating an entry gives its record, the JSON object the clifford
report lists: its Clifford orders, each check's record and its verdict.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction as Q

from .clifford_lab import (
    FiniteGroupModel,
    ModelAnalysis,
    center_dimension_check,
    commutativity_check,
    multiplicity_transfer_check,
)
from .cyclotomic import Cyc
from .finite_groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    heisenberg,
    quaternion,
)
from .representations import Representation


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def _cmat(cond: int, rows) -> list:
    return [[e if isinstance(e, Cyc) else Cyc.rational(cond, e)
             for e in row] for row in rows]


def _kron(a: list, b: list) -> list:
    n, m = len(a), len(b)
    return [[a[i][j] * b[k][l] for j in range(n) for l in range(m)]
            for i in range(n) for k in range(m)]


def _rep(group: FiniteGroup, gens: list[int], mats: list, cond: int
         ) -> Representation:
    return Representation.from_generators(group, gens, mats, cond)


# two-dimensional building blocks, conductor 4
def _d8_two_dim(cond: int = 4) -> tuple[list, list]:
    rot = _cmat(cond, [[0, -1], [1, 0]])
    ref = _cmat(cond, [[1, 0], [0, -1]])
    return rot, ref


def _q8_two_dim(cond: int = 4) -> tuple[list, list]:
    i4 = Cyc.zeta(cond, cond // 4)
    a = [[i4, Cyc.zero(cond)], [Cyc.zero(cond), -i4]]
    b = _cmat(cond, [[0, -1], [1, 0]])
    return a, b


# ---------------------------------------------------------------------------
# entry builders
# ---------------------------------------------------------------------------

def _d8_rho2() -> FiniteGroupModel:
    g = dihedral(4)
    rot, ref = _d8_two_dim()
    rho_t = _rep(g, [1, 4], [rot, ref], 4)
    rho = _rep(g, [1], [[[Cyc.zeta(4)]]], 4)
    return FiniteGroupModel("d8_rho2", g, (0, 1, 2, 3), tuple(range(8)),
                            rho_t, rho)


def _d8_klein() -> FiniteGroupModel:
    g = dihedral(4)
    rot, ref = _d8_two_dim()
    rho_t = _rep(g, [1, 4], [rot, ref], 4)
    rho = _rep(g, [2, 4], [_cmat(4, [[-1]]), _cmat(4, [[1]])], 4)
    return FiniteGroupModel("d8_klein", g, (0, 2, 4, 6), tuple(range(8)),
                            rho_t, rho)


def _q8_rho2() -> FiniteGroupModel:
    g = quaternion(8)
    a, b = _q8_two_dim()
    rho_t = _rep(g, [1, 4], [a, b], 4)
    rho = _rep(g, [2], [_cmat(4, [[-1]])], 4)
    return FiniteGroupModel("q8_rho2", g, (0, 2), tuple(range(8)),
                            rho_t, rho)


def _q8_n_c4() -> FiniteGroupModel:
    g = quaternion(8)
    a, b = _q8_two_dim()
    rho_t = _rep(g, [1, 4], [a, b], 4)
    rho = _rep(g, [1], [[[Cyc.zeta(4)]]], 4)
    return FiniteGroupModel("q8_n_c4", g, (0, 1, 2, 3), tuple(range(8)),
                            rho_t, rho)


# the three-dimensional representation of He3 on generators 9 and 3
def _he3_three_dim(g: FiniteGroup) -> Representation:
    z3 = Cyc.zeta(3)
    shift = _cmat(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    weight = [[Cyc.one(3), Cyc.zero(3), Cyc.zero(3)],
              [Cyc.zero(3), z3, Cyc.zero(3)],
              [Cyc.zero(3), Cyc.zero(3), z3 * z3]]
    return _rep(g, [9, 3], [shift, weight], 3)


def _he3_z() -> FiniteGroupModel:
    g = heisenberg(3)
    rho = _rep(g, [1], [[[Cyc.zeta(3)]]], 3)
    return FiniteGroupModel("he3_z", g, (0, 1, 2), tuple(range(27)),
                            _he3_three_dim(g), rho)


def _he3_n9() -> FiniteGroupModel:
    g = heisenberg(3)
    rho_t = _he3_three_dim(g)
    n = g.closure([9, 1])
    rho = _rep(g, [9, 1], [[[Cyc.one(3)]], [[Cyc.zeta(3)]]], 3)
    return FiniteGroupModel("he3_n9", g, n, tuple(range(27)), rho_t, rho)


def _d16_rho() -> FiniteGroupModel:
    g = dihedral(8)
    z8 = Cyc.zeta(8)
    rot = [[z8, Cyc.zero(8)], [Cyc.zero(8), z8.galois(7)]]
    ref = _cmat(8, [[0, 1], [1, 0]])
    rho_t = _rep(g, [1, 8], [rot, ref], 8)
    rho = _rep(g, [1], [[[z8]]], 8)
    return FiniteGroupModel("d16_rho", g, tuple(range(8)), tuple(range(16)),
                            rho_t, rho)


def _q16_rho() -> FiniteGroupModel:
    g = quaternion(16)
    z8 = Cyc.zeta(8)
    rot = [[z8, Cyc.zero(8)], [Cyc.zero(8), z8.galois(7)]]
    flip = _cmat(8, [[0, -1], [1, 0]])
    rho_t = _rep(g, [1, 8], [rot, flip], 8)
    rho = _rep(g, [1], [[[z8]]], 8)
    return FiniteGroupModel("q16_rho", g, tuple(range(8)), tuple(range(16)),
                            rho_t, rho)


def _q8xc3() -> FiniteGroupModel:
    g = direct_product(quaternion(8), cyclic(3))
    z3 = Cyc.zeta(12, 4)
    a, b = _q8_two_dim(12)
    omega = [[z3, Cyc.zero(12)], [Cyc.zero(12), z3]]
    rho_t = _rep(g, [3, 12, 1], [a, b, omega], 12)
    rho = _rep(g, [6, 1], [[[-Cyc.one(12)]], [[z3]]], 12)
    n = g.closure([6, 1])
    return FiniteGroupModel("q8xc3", g, n, tuple(range(24)), rho_t, rho)


def _q8xd8() -> FiniteGroupModel:
    g = direct_product(quaternion(8), dihedral(4))
    i4 = Cyc.zeta(4)
    a, b = _q8_two_dim()
    scal = [[i4, Cyc.zero(4)], [Cyc.zero(4), i4]]
    j_t = g.closure([8, 32, 1])
    rho_t = _rep(g, [8, 32, 1], [a, b, scal], 4)
    rho = _rep(g, [16, 1], [[[-Cyc.one(4)]], [[i4]]], 4)
    n = g.closure([16, 1])
    return FiniteGroupModel("q8xd8", g, n, j_t, rho_t, rho)


def _c4_in_q8() -> FiniteGroupModel:
    g = quaternion(8)
    rho_t = _rep(g, [1], [[[Cyc.zeta(4)]]], 4)
    return FiniteGroupModel("c4_in_q8", g, (0, 1, 2, 3), (0, 1, 2, 3),
                            rho_t, rho_t)


def _skip_c4() -> FiniteGroupModel:
    g = dihedral(4)
    rho_t = _rep(g, [1], [_cmat(4, [[-1]])], 4)
    return FiniteGroupModel("skip_c4", g, (0, 1, 2, 3), (0, 1, 2, 3),
                            rho_t, rho_t)


def _skip_d8_center() -> FiniteGroupModel:
    g = dihedral(4)
    rho_t = _rep(g, [2, 4], [_cmat(4, [[-1]]), _cmat(4, [[1]])], 4)
    rho = _rep(g, [2], [_cmat(4, [[-1]])], 4)
    return FiniteGroupModel("skip_d8_center", g, (0, 2), (0, 2, 4, 6),
                            rho_t, rho)


def _c6_triv() -> FiniteGroupModel:
    g = cyclic(6)
    rho_t = _rep(g, [1], [_cmat(6, [[1]])], 6)
    return FiniteGroupModel("c6_triv", g, tuple(range(6)), tuple(range(6)),
                            rho_t, rho_t)


def _d8_triv() -> FiniteGroupModel:
    g = dihedral(4)
    rho_t = _rep(g, [1, 4], [_cmat(4, [[1]]), _cmat(4, [[1]])], 4)
    return FiniteGroupModel("d8_triv", g, tuple(range(8)), tuple(range(8)),
                            rho_t, rho_t)


def _he3_sub() -> FiniteGroupModel:
    g = heisenberg(3)
    n = g.closure([9, 1])
    rho_t = _rep(g, [9, 1], [[[Cyc.one(3)]], [[Cyc.zeta(3)]]], 3)
    return FiniteGroupModel("he3_sub", g, n, n, rho_t, rho_t)


def _c8_faithful() -> FiniteGroupModel:
    g = cyclic(8)
    rho_t = _rep(g, [1], [[[Cyc.zeta(8)]]], 8)
    rho = _rep(g, [4], [[[Cyc.zeta(8, 4)]]], 8)
    return FiniteGroupModel("c8_faithful", g, (0, 4), tuple(range(8)),
                            rho_t, rho)


def _d8q8_mixed() -> FiniteGroupModel:
    g = direct_product(dihedral(4), quaternion(8))
    rot, ref = _d8_two_dim()
    qa, qb = _q8_two_dim()
    ident = _cmat(4, [[1, 0], [0, 1]])
    rho_t = _rep(g, [8, 32, 1, 4],
                 [_kron(rot, ident), _kron(ref, ident),
                  _kron(ident, qa), _kron(ident, qb)], 4)
    rho = _rep(g, [8, 2], [[[Cyc.zeta(4)]], [[-Cyc.one(4)]]], 4)
    n = g.closure([8, 2])
    return FiniteGroupModel("d8q8_mixed", g, n, tuple(range(64)), rho_t, rho)


def _q8q8_tensor() -> FiniteGroupModel:
    g = direct_product(quaternion(8), quaternion(8))
    qa, qb = _q8_two_dim()
    ident = _cmat(4, [[1, 0], [0, 1]])
    rho_t = _rep(g, [8, 32, 1, 4],
                 [_kron(qa, ident), _kron(qb, ident),
                  _kron(ident, qa), _kron(ident, qb)], 4)
    rho = _rep(g, [8, 32, 2],
               [qa, qb, _cmat(4, [[-1, 0], [0, -1]])], 4)
    n = g.closure([8, 32, 2])
    return FiniteGroupModel("q8q8_tensor", g, n, tuple(range(64)),
                            rho_t, rho)


_BUILDERS = [
    _d8_rho2, _d8_klein, _q8_rho2, _q8_n_c4, _he3_z, _he3_n9,
    _d16_rho, _q16_rho, _q8xc3, _q8xd8, _c4_in_q8, _skip_c4,
    _skip_d8_center, _c6_triv, _d8_triv, _he3_sub, _c8_faithful,
    _d8q8_mixed, _q8q8_tensor,
]


def build_catalog() -> list[FiniteGroupModel]:
    return [b() for b in _BUILDERS]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _coeffs_to_json(value: Cyc) -> list[str]:
    return [str(c) for c in value.c]


# an integer or p/q: no decimal point, no exponent, no zero denominator
_EXACT_RATIONAL = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def _coeffs_from_json(cond: int, coeffs: list[str]) -> Cyc:
    # coefficients are exact strings such as "-1/2", never JSON numbers;
    # the constructor validates the coefficient-vector length; integral
    # coefficients become ints, like those of the builtin entries
    if not isinstance(coeffs, list) or not all(
            isinstance(c, str) and _EXACT_RATIONAL.fullmatch(c)
            for c in coeffs):
        raise ValueError(f"coefficients must be strings p/q or integers, "
                         f"got {coeffs!r}")
    values = [Q(c) for c in coeffs]
    return Cyc(cond, [v.numerator if v.denominator == 1 else v for v in values])


def _rep_to_json(rep: Representation, gens: list[int]) -> dict:
    return {
        "generators": list(gens),
        "matrices": [[[_coeffs_to_json(e) for e in row]
                      for row in rep.matrix(g)] for g in gens],
    }


def _rep_from_json(group: FiniteGroup, data: dict, cond: int, where: str
                   ) -> Representation:
    matrices = _field(data, "matrices", where, list)
    if not all(isinstance(m, list) and all(isinstance(row, list) for row in m)
               for m in matrices):
        raise ValueError(f"{where}: 'matrices' must be a JSON list of "
                         f"matrices, each a list of rows")
    mats = [[[_coeffs_from_json(cond, e) for e in row] for row in m]
            for m in matrices]
    gens = _elements(group, _field(data, "generators", where), "generators")
    dim = len(mats[0]) if mats else 0
    if not dim or len(mats) != len(gens) or any(
            {len(m), *map(len, m)} != {dim} for m in mats):
        raise ValueError("a representation needs one square matrix of one "
                         "positive size per generator")
    return Representation.from_generators(group, gens, mats, cond)


def model_to_json(model: FiniteGroupModel) -> dict:
    # the trivial group has no greedy generator; 0 carries its matrix
    gens_t = model.group.generators(model.rho_tilde.domain) or [0]
    gens_r = model.group.generators(model.rho.domain) or [0]
    return {
        "name": model.name,
        "group": {"table": [list(r) for r in model.group.table],
                  "label": model.group.label},
        "normal": list(model.normal),
        "j_tilde": list(model.j_tilde),
        "conductor": model.rho_tilde.conductor,
        "rho_tilde": _rep_to_json(model.rho_tilde, gens_t),
        "rho": _rep_to_json(model.rho, gens_r),
    }


def _integers(values: list, what: str) -> tuple[int, ...]:
    # the JSON reader alone needs root_datum; the builtin catalog does not
    from .root_datum import as_integer
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return tuple(as_integer(v, f"every entry of {what}") for v in values)


def _elements(group: FiniteGroup, values: list, what: str) -> tuple[int, ...]:
    out = _integers(values, what)
    if not all(0 <= g < group.order for g in out):
        raise ValueError(f"{what} must index the {group.order} group "
                         f"elements, got {values!r}")
    return out


_JSON_KINDS = {dict: "object", list: "list"}


def _field(data: dict, key: str, where: str, kind: type | None = None):
    """data[key], refused with its place in the catalog when the key is
    missing or, given ``kind``, holds another JSON kind."""
    if key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be a JSON "
                         f"{_JSON_KINDS[kind]}, got {value!r}")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def model_from_json(data: dict, where: str = "entry") -> FiniteGroupModel:
    """The model of one catalog entry; ``where`` names the entry in the
    messages of a missing or mistyped key."""
    name = _string(_field(data, "name", where), "name")
    gsrc = _field(data, "group", where)
    if not isinstance(gsrc, dict):
        raise ValueError("group must be a JSON object")
    label = _string(gsrc.get("label", ""), "group label")
    if "table" in gsrc:
        rows = _field(gsrc, "table", f"{where} group", list)
        group = FiniteGroup(tuple(_integers(r, "table") for r in rows), label)
    elif "permutations" in gsrc:
        perms = [_integers(p, "permutations")
                 for p in _field(gsrc, "permutations", f"{where} group", list)]
        if not perms or any(sorted(p) != list(range(len(perms[0])))
                            for p in perms):
            raise ValueError("permutations must rearrange one set 0..k-1")
        group = from_permutations(perms, label)
    else:
        raise ValueError("group needs a table or permutation generators")
    # every representation of G is realizable over Q(zeta_e), e | |G|
    from .root_datum import as_integer
    cond = as_integer(_field(data, "conductor", where), "conductor")
    if not 1 <= cond <= group.order:
        raise ValueError(f"conductor must lie in 1..{group.order}, the "
                         f"group order, got {cond}")
    model = FiniteGroupModel(
        name, group, _elements(group, _field(data, "normal", where), "normal"),
        _elements(group, _field(data, "j_tilde", where), "j_tilde"),
        *(_rep_from_json(group, _field(data, key, where, dict), cond,
                         f"{where} {key}")
          for key in ("rho_tilde", "rho")))
    model.validate()
    return model


def catalog_to_json(models: list[FiniteGroupModel]) -> dict:
    return {"entries": [model_to_json(m) for m in models]}


def catalog_from_json(data: dict) -> list[FiniteGroupModel]:
    """The models of a catalog file's entries, in order; an empty,
    missing or mistyped ``entries`` is refused."""
    entries = data.get("entries") if isinstance(data, dict) else None
    if not (isinstance(entries, list) and entries
            and all(isinstance(e, dict) for e in entries)):
        raise ValueError("`entries` must be a non-empty JSON list of objects")
    return [model_from_json(e, f"entry {k}") for k, e in enumerate(entries)]


def write_catalog(path: str, models: list[FiniteGroupModel] | None = None
                  ) -> int:
    """Write the catalog (default: the builtin one); return its size."""
    data = catalog_to_json(models or build_catalog())
    with open(path, "w") as fh:
        json.dump(data, fh)
    return len(data["entries"])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_entry(model: FiniteGroupModel) -> dict:
    """The catalog record of one validated model (``model_from_json``
    validates each model it reads, the ``clifford`` runner each builtin
    one it evaluates); a skipped entry passes."""
    analysis = ModelAnalysis(model)
    rest, tw = analysis.restriction, analysis.twists
    stab, m = analysis.stabilizer, rest.multiplicity
    if stab is not None:
        n_int, n_st, n_dag = len(rest.inertia), len(stab), len(tw.dagger)
        if n_int != m * n_st or n_st != m * n_dag:
            raise AssertionError(
                f"{model.name}: stabilizer indices break the multiplicity "
                f"ladder ({n_int}, {n_st}, {n_dag}, m={m})")
    transfer = multiplicity_transfer_check(analysis)
    center = center_dimension_check(analysis)
    commutativity = commutativity_check(analysis)
    return {
        "name": model.name,
        "multiplicity": m,
        "orbit_size": rest.orbit_size,
        "inertia_order": len(rest.inertia),
        "stabilizer_order": None if stab is None else len(stab),
        "dagger_order": len(tw.dagger),
        "twist_order": tw.order,
        "transfer": transfer,
        "center": center,
        "commutativity": commutativity,
        "passed": transfer["status"] == "SKIPPED" or bool(
            transfer["equal"] and center["equal"]
            and commutativity["coincide"]),
    }


def evaluate_catalog(models: list[FiniteGroupModel]) -> list[dict]:
    """Evaluate entries independently, in input order."""
    return [evaluate_entry(m) for m in models]
