"""End-to-end acceptance gate: seven independent checks, one summary
line each.  Every check prints its verdict and witness counts before
asserting, so a red line carries its own evidence."""
import itertools
from fractions import Fraction as Q
from functools import lru_cache

from heckelab.apartment import (
    alcove_interior_points,
    depth_regular_point,
    heart_condition1_check,
    key_inequality_report,
    levi_profile_translation_witness,
    levi_root_indices,
    threshold,
)
from heckelab.catalog import build_catalog, evaluate_catalog
from heckelab.cli import run
from heckelab.iwahori_hecke import BernsteinAlgebra, label_orbits, satake_check
from heckelab.laurent import LaurentScalar
from heckelab.padic_groups import (
    block_of,
    compare_levi_volumes,
    conjugate_by_permutation,
    from_filtration,
    intersect_levi,
    iwahori_factorization_check,
)
from heckelab.root_datum import (
    WeylGroup,
    cartan_matrix,
    datum_from_cartan,
    datum_general_linear,
)
from heckelab.torus_center import (invariant_dimension, orbits,
                                   residue_modulus, roc_decomposition_check)

from oracles import (
    base_alcove_barycenter,
    base_alcove_closure_grid,
    is_central,
    t_element,
)

# the four fixed matrices of the wall-point counterexample
WALL = ((1, 1, 1), (2, 1, 1), (2, 1, 1))
WALL_SWAP = ((1, 2, 1), (1, 1, 1), (1, 2, 1))
LEVI_BLOCK = ((1, 1), (1, 1))
CONJ_LEVI_BLOCK = ((1, 1), (2, 1))
WALL_VERDICT = "G_{x,1} ∉ K^♥(S,G)"

SMALL_RANK_DATA = {
    "A1": datum_from_cartan(cartan_matrix("A", 1), label="A1"),
    "A2": datum_from_cartan(cartan_matrix("A", 2), label="A2"),
    "GL2": datum_general_linear(2),
    "GL3": datum_general_linear(3),
    "B2": datum_from_cartan(cartan_matrix("B", 2), label="B2"),
}
SMALL_RANK_GROUPS = {name: WeylGroup(datum)
                     for name, datum in SMALL_RANK_DATA.items()}


def _emit(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _theta_subsets(datum):
    m = datum.semisimple_rank
    return [tuple(c) for k in range(m + 1)
            for c in itertools.combinations(range(m), k)]


@lru_cache(maxsize=None)
def _satake(name: str, radius: int):
    group = SMALL_RANK_GROUPS[name]
    return satake_check(group, label_orbits(group, radius))


def test_criterion_1_wall_point_counterexample():
    # full pipeline through the command layer: the four matrices, both
    # symbolic indices, exact point-count cross-checks, and the verdict
    report = run("counterexample")
    statuses = {c.name: c.status for c in report.checks}
    bad = sorted(name for name, st in statuses.items() if st != "PASS")
    mats = report.data["matrices"]
    expected = {
        "filtration_group": [list(r) for r in WALL],
        "conjugated_group": [list(r) for r in WALL_SWAP],
        "levi_intersection": [[1, None, None], [None, 1, 1], [None, 1, 1]],
        "conjugated_levi_intersection":
            [[1, None, None], [None, 1, 1], [None, 2, 1]],
    }
    mats_ok = mats == expected
    idx = report.data["indices"]
    idx_ok = (idx["principal_congruence_in_iwahori"] == "q*(q-1)^2"
              and idx["pro_unipotent_in_iwahori"] == "q^2*(q-1)^2")
    counts = {row["p"]: row for row in report.data["point_counts"]}
    counts_ok = (counts[2]["principal_index"] == 2
                 and counts[2]["pro_unipotent_index"] == 4
                 and counts[3]["principal_index"] == 12
                 and counts[3]["pro_unipotent_index"] == 36)
    verdict_ok = report.data.get("verdict") == WALL_VERDICT
    ok = (not bad and report.exit_code == 0 and mats_ok and idx_ok
          and counts_ok and verdict_ok)
    detail = (f"{len(report.checks)} checks, matrices "
              f"{'exact' if mats_ok else 'WRONG'}, indices q*(q-1)^2 and "
              f"q^2*(q-1)^2 {'confirmed' if idx_ok else 'WRONG'}, point "
              f"counts p=2,3 {'exact' if counts_ok else 'WRONG'}, verdict "
              f"{report.data.get('verdict')}")
    if bad:
        detail += f"; failing checks: {bad}"
    _emit(1, ok, detail)
    assert ok, detail


def _pair_sums(datum, x, r, theta) -> list[int]:
    # multiset of t_a + t_{-a} over the positive theta-Levi roots: a
    # translation keeps every pair sum and a Levi Weyl element permutes
    # them, so profiles with different multisets admit no witness
    pos = [datum.roots[k] for k in levi_root_indices(datum, theta)
           if datum.is_positive_root(datum.roots[k])]
    return sorted(threshold(datum, a, x, r)
                  + threshold(datum, tuple(-c for c in a), x, r) for a in pos)


def _gl_volume_verdict(datum, x, image, r, theta) -> str:
    # second route on general-linear data: DISTINCT_VOLUME when some
    # theta-block of the Levi intersections at x and at the image has a
    # different volume, which proves no witness exists
    models = [from_filtration(datum, p, r) for p in (x, image)]
    return compare_levi_volumes(*models, theta).status


def test_criterion_2_heart_condition_interior_sweep():
    # every alcove-interior point with coordinate denominator <= 6, all
    # Levi subsets, depths 1/2, 1, 3/2, 2.  The threshold-equality
    # certificate is not a conjugacy decision, so each mismatching coset
    # factor v must be explained: repaired by a translation witness, or
    # obstructed (no witness, x depth-critical, pair sums moved by v);
    # on GL data the volume route must agree.  Integer depths must be
    # clean.  Every coset shift (v^-1 a - a)(x) must have v^-1 a
    # positive (the contract of minimal_coset_representatives), hence
    # -1 < shift < 1; the one-sided inequality 0 <= shift is counted,
    # not required
    depths = (Q(1, 2), Q(1), Q(3, 2), Q(2))
    heart_total = heart_bad = key_total = key_bad = 0
    heart_bad_r = {}
    factors = {"repaired": 0, "obstructed": 0, "unexplained": 0}
    verdicts_repaired = verdicts_obstructed = 0
    gl_volume = {"DISTINCT_VOLUME": 0, "INCONCLUSIVE": 0}
    obstructed_cases = set()
    problems = []
    obstructed_samples = []
    for name, datum in SMALL_RANK_DATA.items():
        group = SMALL_RANK_GROUPS[name]
        subsets = _theta_subsets(datum)
        for x in alcove_interior_points(datum, 6):
            for theta in subsets:
                for r in depths:
                    heart_total += 1
                    where = (f"{name} x={tuple(map(str, x))} r={r} "
                             f"theta={theta}")
                    regular = depth_regular_point(datum, x, r)
                    verdict = heart_condition1_check(group, x, r, theta)
                    if r.denominator == 1 and not (regular and verdict.proven):
                        problems.append(
                            f"{where}: integer depth not clean "
                            f"(regular={regular}, {verdict.status})")
                    if verdict.proven:
                        continue
                    heart_bad += 1
                    heart_bad_r[str(r)] = heart_bad_r.get(str(r), 0) + 1
                    for w in verdict.witnesses:
                        image = group.act_cocharacter(w.w2, x)
                        if (w.threshold_at_x, w.threshold_at_image) != (
                                threshold(datum, w.root, x, r),
                                threshold(datum, w.root, image, r)) \
                                or w.threshold_at_x == w.threshold_at_image:
                            problems.append(
                                f"{where}: spurious mismatch on {w.root} "
                                f"after word {group.words[w.w2]}")
                    sums_x = _pair_sums(datum, x, r, theta)
                    kinds = set()
                    for v in dict.fromkeys(w.w2 for w in verdict.witnesses):
                        image = group.act_cocharacter(v, x)
                        witness = levi_profile_translation_witness(
                            group, x, r, theta, v)
                        sums_image = _pair_sums(datum, image, r, theta)
                        if witness is not None:
                            kind = "repaired"
                        elif not regular and sums_x != sums_image:
                            kind = "obstructed"
                            obstructed_cases.add((name, x, r, theta))
                            if len(obstructed_samples) < 2:
                                obstructed_samples.append(
                                    f"{where} v={group.words[v]}: pair sums "
                                    f"{sums_x} vs {sums_image}")
                        else:
                            kind = "unexplained"
                            problems.append(f"{where} v={group.words[v]}: no "
                                            f"witness, regular={regular}")
                        factors[kind] += 1
                        kinds.add(kind)
                        if name.startswith("GL"):
                            volume = _gl_volume_verdict(
                                datum, x, image, r, theta)
                            gl_volume[volume] += 1
                            if (volume == "DISTINCT_VOLUME") \
                                    != (witness is None):
                                problems.append(
                                    f"{where} v={group.words[v]}: witness "
                                    f"{witness}, volume {volume}")
                    if "obstructed" in kinds:
                        verdicts_obstructed += 1
                    else:
                        verdicts_repaired += 1
                for rec in key_inequality_report(group, x, theta):
                    key_total += 1
                    if not rec.inequality_holds:
                        key_bad += 1
                    pulled = group.act_character(group.inv(rec.w2), rec.root)
                    if not (datum.is_positive_root(pulled)
                            and -1 < rec.delta < 1):
                        problems.append(
                            f"{name} x={tuple(map(str, x))} theta={theta}: "
                            f"shift of {rec.root} along word {group.words[rec.w2]} "
                            f"is {rec.delta} via root {pulled}")
    sweep = (heart_total, key_total)
    if sweep != (2288, 1276):
        problems.append(f"sweep shrank or grew: {sweep} != (2288, 1276)")
    b2 = SMALL_RANK_DATA["B2"]
    barycenter = base_alcove_barycenter(b2)
    barycenter_depths = [str(r) for r in depths
                         if ("B2", barycenter, r, (1,)) in obstructed_cases]
    ok = not problems
    detail = (f"heart condition {heart_total - heart_bad}/{heart_total} "
              f"proven, mismatches by depth {heart_bad_r}: "
              f"{verdicts_repaired} verdicts repaired, {verdicts_obstructed} "
              f"obstructed; mismatching coset factors "
              f"{factors['repaired']} repaired, {factors['obstructed']} "
              f"obstructed, {factors['unexplained']} unexplained; "
              f"GL volume route {gl_volume}; "
              f"coset-shift inequality {key_total - key_bad}/{key_total} "
              f"hold, {key_bad} negative shifts in (-1, 0); obstructed: "
              f"{' | '.join(obstructed_samples)} | B2 barycenter "
              f"{tuple(map(str, barycenter))} theta=(1,) at r in "
              f"{barycenter_depths}")
    if problems:
        detail += f"; problems ({len(problems)}): {' | '.join(problems[:4])}"
    _emit(2, ok, detail)
    assert ok, detail


def test_criterion_3_iwahori_factorization_grid():
    # closure grid with denominator <= 2, depths 1/2 and 1, every
    # contiguous proper block partition, primes 2 and 3: the analytic
    # factorization must pass and brute-force point counts must agree
    # wherever enumeration fits under the cap (never contradicting it)
    partitions = {
        2: [((0,), (1,))],
        3: [((0,), (1,), (2,)), ((0,), (1, 2)), ((0, 1), (2,))],
    }
    total = bad = exhaustive_hits = 0
    failures = []
    for n in (2, 3):
        datum = datum_general_linear(n)
        for x in base_alcove_closure_grid(datum, 2):
            for r in (Q(1, 2), Q(1)):
                scheme = from_filtration(datum, x, r)
                for blocks in partitions[n]:
                    total += 1
                    rep = iwahori_factorization_check(scheme, blocks)
                    verified = [p for p, v in rep.exhaustive if v is True]
                    contradicted = [p for p, v in rep.exhaustive if v is False]
                    exhaustive_hits += len(verified)
                    if not (rep.passed and verified and not contradicted):
                        bad += 1
                        failures.append(
                            f"GL{n} x={tuple(map(str, x))} r={r} "
                            f"blocks={blocks}: analytic={rep.analytic_match} "
                            f"exhaustive={rep.exhaustive}")
    ok = bad == 0
    detail = (f"{total - bad}/{total} factorizations verified, "
              f"{exhaustive_hits} exact enumerations agreed")
    if failures:
        detail += f"; failures: {' | '.join(failures[:3])}"
    _emit(3, ok, detail)
    assert ok, detail


def test_criterion_4_clifford_catalog():
    # shipped catalog: restriction-dimension identity, the two-step
    # index ladder, twist-count identity, and agreement of the two
    # multiplicity routes, the two dimension counts, and the three
    # commutativity booleans on every entry whose hypotheses verify
    models = build_catalog()
    results = evaluate_catalog(models)
    problems = []
    checked = skipped = 0
    for model, rec in zip(models, results):
        m, n_st = rec["multiplicity"], rec["stabilizer_order"]
        if model.rho_tilde.dim != rec["orbit_size"] * m * model.rho.dim:
            problems.append(f"{model.name}: restriction dimension")
        if n_st is not None:
            if rec["inertia_order"] != m * n_st \
                    or n_st != m * rec["dagger_order"]:
                problems.append(f"{model.name}: index ladder")
        q, rem = divmod(len(model.j_tilde), rec["dagger_order"])
        if rem or rec["twist_order"] != q:
            problems.append(f"{model.name}: twist count")
        if rec["transfer"]["status"] == "SKIPPED":
            skipped += 1
            continue
        checked += 1
        if rec["transfer"]["equal"] is not True:
            problems.append(f"{model.name}: multiplicity transfer")
        if rec["center"]["equal"] is not True:
            problems.append(f"{model.name}: center dimension")
        if rec["commutativity"]["coincide"] is not True:
            problems.append(f"{model.name}: commutativity")
    size_ok = len(models) >= 12 and all(m.group.order <= 512 for m in models)
    ok = size_ok and not problems
    detail = (f"{len(models)} entries (max group order "
              f"{max(m.group.order for m in models)}), {checked} fully "
              f"checked, {skipped} skipped by hypothesis")
    if problems:
        detail += f"; problems: {problems}"
    _emit(4, ok, detail)
    assert ok, detail


def test_criterion_5_residue_orbit_decomposition():
    # general-linear rank two, q in {2,3,4}, radius <= 2: every orbit
    # sum decomposes blockwise as claimed, and three independent
    # invariant-dimension computations agree with the orbit count
    frozen = {(2, 0): 1, (2, 2): 15, (3, 1): 21, (3, 2): 55, (4, 2): 120}
    group = WeylGroup(datum_general_linear(2))
    problems = []
    orbit_checks = 0
    dims = {}
    for q in (2, 3, 4):
        for radius in (0, 1, 2):
            orbs = orbits(group, radius, modulus=residue_modulus(q))
            for osum in orbs:
                orbit_checks += 1
                rep = roc_decomposition_check(group, osum)
                if not rep.ok:
                    problems.append(
                        f"q={q} R={radius} orbit of "
                        f"{osum.orbit[0]}: {rep.failures}")
            try:
                dims[(q, radius)] = invariant_dimension(group, orbs)
            except AssertionError as exc:
                problems.append(f"q={q} R={radius}: {exc}")
    for key, want in frozen.items():
        if dims.get(key) != want:
            problems.append(f"q={key[0]} R={key[1]}: dimension "
                            f"{dims.get(key)} vs pinned {want}")
    ok = not problems
    detail = (f"{orbit_checks} orbit decompositions verified, three-way "
              f"dimensions {sorted(dims.items())}")
    if problems:
        detail += f"; problems: {problems[:4]}"
    _emit(5, ok, detail)
    assert ok, detail


def test_criterion_6_truncated_center():
    # rank-one data at radius <= 2: quadratic relation and lattice
    # additivity hold symbolically, every orbit sum is central, and the
    # exact commutant dimension equals the dominant-orbit count
    frozen = {"A1": (1, 2, 3), "GL2": (1, 6, 15)}
    qvar = LaurentScalar.q_power(1)
    q_minus_1 = qvar - LaurentScalar.one()
    problems = []
    dims = {}
    for name in ("A1", "GL2"):
        alg = BernsteinAlgebra(SMALL_RANK_GROUPS[name])
        one = alg.theta((0,) * alg.rank)
        t = t_element(alg, 0)
        # single generator, so the braid relations are vacuous here
        if alg.bernstein_multiply(t, t) != t.scale(q_minus_1) + one.scale(qvar):
            problems.append(f"{name}: quadratic relation")
        box = list(itertools.product((-1, 0, 1), repeat=alg.rank))
        for lam, mu in itertools.product(box, repeat=2):
            total = tuple(a + b for a, b in zip(lam, mu))
            if alg.bernstein_multiply(alg.theta(lam), alg.theta(mu)) \
                    != alg.theta(total):
                problems.append(f"{name}: additivity at {lam}+{mu}")
                break
        for radius in (0, 1, 2):
            rep = _satake(name, radius)
            dims[(name, radius)] = rep.center_dimension
            if not rep.ok:
                problems.append(f"{name} R={radius}: {rep.failures[:2]}")
            if rep.center_dimension != len(rep.representatives) \
                    or rep.center_dimension != frozen[name][radius]:
                problems.append(
                    f"{name} R={radius}: dimension {rep.center_dimension} "
                    f"vs {len(rep.representatives)} orbits, pinned "
                    f"{frozen[name][radius]}")
            if not all(is_central(alg, alg.central_element(mu_rep))
                       for mu_rep in rep.representatives):
                problems.append(f"{name} R={radius}: non-central orbit sum")
    ok = not problems
    detail = (f"quadratic and additivity identities symbolic, center "
              f"dimensions {sorted(dims.items())}")
    if problems:
        detail += f"; problems: {problems[:4]}"
    _emit(6, ok, detail)
    assert ok, detail


def test_criterion_7_cross_module_coherence():
    # the threshold profile feeds the integral-matrix layer and lands on
    # the pinned wall-point matrices by both conjugation routes; the
    # trivial-character torus orbits match the central-element supports
    datum = datum_general_linear(3)
    group = WeylGroup(datum)
    x = (Q(1, 2), Q(0), Q(0))
    problems = []
    base = from_filtration(datum, x, Q(1))
    if base.bounds != WALL:
        problems.append(f"filtration route gave {base.bounds}")
    swapped = conjugate_by_permutation(base, (1, 0, 2))
    reflected = from_filtration(
        datum, group.act_cocharacter(group.simple_reflection(0), x), Q(1))
    if not (swapped.bounds == reflected.bounds == WALL_SWAP):
        problems.append(
            f"conjugation routes gave {swapped.bounds} and {reflected.bounds}")
    blocks = ((0,), (1, 2))
    if block_of(intersect_levi(base, blocks), (1, 2)).bounds != LEVI_BLOCK:
        problems.append("block intersection drifted")
    if block_of(intersect_levi(swapped, blocks), (1, 2)).bounds \
            != CONJ_LEVI_BLOCK:
        problems.append("conjugated block intersection drifted")

    orbit_matches = 0
    for name in ("A1", "GL2"):
        for radius in (0, 1, 2):
            trivial = {
                frozenset(lam for lam, _chi in osum.orbit)
                for osum in orbits(SMALL_RANK_GROUPS[name], radius, modulus=2)
                if not any(osum.orbit[0][1])}
            supports = {frozenset(o) for o in _satake(name, radius).orbits}
            if trivial != supports:
                problems.append(
                    f"{name} R={radius}: {len(trivial)} trivial-character "
                    f"orbits vs {len(supports)} central supports")
            else:
                orbit_matches += len(supports)
    ok = not problems
    detail = (f"wall-point matrices reproduced from thresholds by both "
              f"routes, {orbit_matches} orbit supports matched")
    if problems:
        detail += f"; problems: {problems}"
    _emit(7, ok, detail)
    assert ok, detail
