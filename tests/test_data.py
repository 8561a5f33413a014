import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from oracles import NotASubcategory, framed_s_entry, mueger_centre, random_slightly_degenerate, relative_centralizer
from conftest import premodular_form
from premodular.cyclotomic import ONE, CycNum, euler_phi, from_rational, make_root, residues, split_primes
import premodular.data
from premodular.data import (
    CentreKind,
    PremodularData,
    _Channels,
    _residues,
    _transparency,
    classify_degeneracy,
    gauss_sum,
    validate_premodular,
)
from premodular.components import ring_characters
from premodular.errors import DatumTooLarge
from premodular.klein import extension_verdict
from premodular.serialize import ParseError, ValidationError, loads_datum, premodular_from_json
from premodular.fusion_ring import dual_permutation_matrix
from premodular.metric_groups import from_gram, to_premodular


def svec_data():
    return to_premodular(from_gram([2], [Fraction(1, 2)]))


def test_svec_validates_with_synthesized_s():
    data = svec_data()
    fresh = type(data).from_values(data.ring, dims=data.dims, twists=data.twists, s=None)
    rep = validate_premodular(fresh)
    assert rep.ok
    assert fresh.s is None  # validation decides s on residues and sets none
    # the fermion line is invisible to everything: s = all-ones
    s = oracles.synthesized_s(fresh)
    assert all(s[a][b] == ONE for a in range(2) for b in range(2))


def test_dimension_character_violation():
    data = svec_data()
    bad = type(data).from_values(data.ring, dims=[data.dims[0], from_rational(2)],
                                 twists=data.twists, s=None)
    rep = validate_premodular(bad)
    assert not rep.ok
    assert "DimensionCharacterViolation" in rep.kinds()


def test_zero_scalars_are_reported_not_raised():
    data = svec_data()
    bad = type(data).from_values(data.ring, dims=data.dims,
                                 twists=[data.twists[0], from_rational(0)], s=None)
    rep = validate_premodular(bad)
    assert "ZeroTwistViolation" in rep.kinds()

    bad = type(data).from_values(data.ring, dims=[data.dims[0], from_rational(0)],
                                 twists=data.twists, s=None)
    rep = validate_premodular(bad)
    assert "ZeroDimViolation" in rep.kinds()


def test_ising_balancing_by_hand():
    data = premodular_form("ising:1")
    i_sigma, i_psi = 2, 1
    assert data.s[i_sigma][i_sigma].is_zero()
    d_sigma = make_root(1, 8) + make_root(-1, 8)
    assert data.s[i_sigma][i_psi] == -d_sigma
    # oracle: evaluate the balancing sum sum_c N^c theta_c d_c directly
    # for (sigma, psi): the only channel is sigma itself
    theta_sigma = data.twists[i_sigma]
    by_hand = theta_sigma.inverse() * (-1) * (theta_sigma * d_sigma)
    assert data.s[i_sigma][i_psi] == by_hand


def test_supplied_s_must_match_balancing():
    data = svec_data()
    tampered = [list(row) for row in data.s]
    tampered[1][1] = from_rational(-1)
    bad = type(data).from_values(data.ring, dims=data.dims, twists=data.twists, s=tampered)
    rep = validate_premodular(bad)
    assert "BalancingViolation" in rep.kinds()


def test_framed_entries():
    svec = svec_data()
    assert framed_s_entry(svec, "(1)", "(1)") == ONE

    semion = premodular_form("semion")
    assert framed_s_entry(semion, "(1)", "(1)") == from_rational(-1)

    ising = premodular_form("ising:1")
    assert framed_s_entry(ising, "sigma", "psi") == from_rational(-1)


def test_relative_centralizer():
    ising = premodular_form("ising:1")
    assert relative_centralizer(ising, {"1"}) == {"1", "psi", "sigma"}
    assert relative_centralizer(ising, {"1", "psi"}) == {"1", "psi"}

    semion = premodular_form("semion")
    assert relative_centralizer(semion, {"(0)", "(1)"}) == {"(0)"}

    with pytest.raises(NotASubcategory):
        relative_centralizer(ising, {"1", "sigma"})  # sigma^2 leaves the set
    with pytest.raises(NotASubcategory):
        relative_centralizer(ising, {"psi"})  # no unit


def test_mueger_centre():
    svec = svec_data()
    centre = mueger_centre(svec)
    assert centre.ring.labels == svec.ring.labels
    assert centre.twists == svec.twists
    assert validate_premodular(centre).ok

    semion = premodular_form("semion")
    centre = mueger_centre(semion)
    assert centre.ring.labels == ["(0)"]
    assert validate_premodular(centre).ok

    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))  # q(x) = x^2/4
    centre = mueger_centre(z4)
    assert centre.ring.labels == ["(0)", "(2)"]
    assert centre.twists[1] == ONE  # transparent boson
    assert validate_premodular(centre).ok


def test_mueger_centre_ring_equals_the_checked_construction(catalog_names):
    # the centre's labels are the transparent ones
    for name in catalog_names:
        data = premodular_form(name)
        assert validate_premodular(data).ok
        assert mueger_centre(data).ring.labels == classify_degeneracy(data).transparent


def test_classification():
    assert classify_degeneracy(svec_data()).kind is CentreKind.SLIGHTLY_DEGENERATE
    assert classify_degeneracy(svec_data()).fermion == "(1)"
    assert classify_degeneracy(premodular_form("ising:1")).kind is CentreKind.NONDEGENERATE
    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))
    cls = classify_degeneracy(z4)
    assert cls.kind is CentreKind.OTHER_DEGENERATE
    assert cls.fermion is None and cls.bosonic == 2


@pytest.mark.parametrize("name, data", oracles.su2_corpus().items())
def test_su2_corpus_has_the_classification_theory_predicts(name, data):
    # SU(2)_k is modular; beside sVec the fermion (0,f) is the whole
    # transparent centre, every label is self-dual and none is e-twisted,
    # so kappa_minus is half the rank; beside Rep(Z2) the boson (0,g) is
    assert validate_premodular(data).ok
    cls, k = classify_degeneracy(data), int(name.split("-")[1])
    comp, verdict = ring_characters(data, cls), extension_verdict(data, cls)
    if name == f"su2-{k}":
        assert (cls.kind, cls.transparent, comp.count, verdict.code) == (
            CentreKind.NONDEGENERATE, ["0"], 1, "already_nondegenerate")
    elif name.endswith("-svec"):
        assert (cls.kind, cls.transparent, cls.fermion, comp.count, verdict.code) == (
            CentreKind.SLIGHTLY_DEGENERATE, ["(0,1)", "(0,f)"], "(0,f)", 2, "extension_exists_S")
        assert (verdict.kappa.n_self_dual, verdict.kappa.kappa_minus) == (2 * (k + 1), k + 1)
    else:
        assert (cls.kind, cls.transparent, cls.fermion, comp.count, verdict.code) == (
            CentreKind.OTHER_DEGENERATE, ["(0,1)", "(0,g)"], None, 2, "outside_scope")


def test_rep_z2_is_tannakian_not_slightly_degenerate():
    cls = classify_degeneracy(premodular_form("rep-z2"))
    assert cls.kind is CentreKind.OTHER_DEGENERATE
    assert cls.bosonic == 2 and cls.fermionic == 0


MODULAR = ["semion", "semion-bar", "toric", "three-fermion",
           "z4-q:1", "z4-q:3", "z4-q:5", "z4-q:7",
           "ising:1", "ising:3", "ising:5", "ising:7",
           "ising:9", "ising:11", "ising:13", "ising:15"]


@pytest.mark.parametrize("name", MODULAR)
def test_gauss_sum_modulus_on_modular_entries(name):
    # |sum d^2 theta|^2 = sum d^2, exactly, when the centre is trivial
    data = premodular_form(name)
    assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE
    sigma = gauss_sum(data)
    total = terms = None
    for d, t in zip(data.dims, data.twists):
        sq = d * d
        total = sq if total is None else total + sq
        terms = sq * t if terms is None else terms + sq * t
    assert sigma * sigma.conj() == total
    # the one array expression against the sum term by term, at the same
    # conductor
    assert sigma.to_json() == terms.to_json()


@pytest.mark.parametrize("name", MODULAR)
def test_s_matrix_unitarity_identity(name):
    # exact unnormalized-S identities for modular data:
    #   s . s       = (sum d^2) C   (C the charge conjugation permutation)
    #   s . conj(s) = (sum d^2) Id
    # (the second follows from the first since conj(s) = C s)
    data = premodular_form(name)
    r = data.ring.rank
    total = None
    for d in data.dims:
        sq = d * d
        total = sq if total is None else total + sq
    C = dual_permutation_matrix(data.ring)
    for a in range(r):
        for b in range(r):
            square = None
            unitary = None
            for c in range(r):
                t1 = data.s[a][c] * data.s[c][b]
                t2 = data.s[a][c] * data.s[c][b].conj()
                square = t1 if square is None else square + t1
                unitary = t2 if unitary is None else unitary + t2
            assert square == total * int(C[a, b]), (name, a, b)
            assert unitary == total * (1 if a == b else 0), (name, a, b)


@pytest.mark.parametrize("name", ["svec", "rep-z2", "semion", "toric", "svec-x-semion",
                                  "z4-q:1", "ising:1", "ising:7"])
def test_transparent_labels_match_centralizer_of_everything(name):
    data = premodular_form(name)
    assert set(classify_degeneracy(data).transparent) == relative_centralizer(data, set(data.labels))


@pytest.mark.parametrize("name", MODULAR + ["svec", "rep-z2", "svec-x-semion"])
def test_s_columns_are_ring_characters(name):
    # in any ribbon datum the Hopf-link column of b diagonalizes fusion:
    # s_{a,b} s_{a',b} = d_b sum_c N^c_{a,a'} s_{c,b}, exactly
    data = premodular_form(name)
    r = data.ring.rank
    # symmetry and the first row, which validation derives from balancing
    I = data.ring.unit_index
    for a in range(r):
        assert data.s[I][a] == data.dims[a], (name, a)
        for b in range(r):
            assert data.s[a][b] == data.s[b][a], (name, a, b)
    assert oracles.character_identity_witnesses(data) == [], name


def test_s_columns_are_ring_characters_on_the_su2_and_digest_corpora():
    # the identity above, for the SU(2)_k corpus and every premodular digest
    # input that validates (the non-pointed digest inputs are the SU(2)_k
    # corpus; metric-group inputs take no premodular validation); on a Z2
    # twist, s is synthesized from conj(theta), so theta = i validates and
    # theta = zeta8, with theta^4 != 1, fails the conjugation of s
    import test_output_digests as corpora
    data = oracles.su2_corpus()
    assert all(validate_premodular(x).ok for x in data.values())
    reports = {}
    for name, (_, text) in corpora.premodular_inputs().items():
        try:
            x = premodular_from_json(json.loads(text))
            reports[name] = validate_premodular(x).kinds()
        except (ParseError, DatumTooLarge):
            continue
        if not reports[name]:
            data[name] = x
    assert reports["z2-i"] == set() and reports["z2-zeta8"] == {"SConjugationViolation"}
    assert len(data) > len(oracles.su2_corpus()) + 20
    for name, x in data.items():
        assert oracles.character_identity_witnesses(oracles.with_s(x)) == [], name
    # the identity sees a broken s: the Z2 twist zeta8 with its s synthesized
    zeta8 = oracles._z2("g", make_root(1, 8))
    assert oracles.character_identity_witnesses(oracles.with_s(zeta8)) == [(1, 1, 1)]


def test_residue_synthesis_of_s_is_the_exact_one(catalog_names):
    # modulo each of the first three split primes, the residues of an
    # absent s are those of oracles.synthesized_s, on every catalog entry
    # with its s dropped, the SU(2)_k corpus and the digest inputs without
    # s that reach s; Ising's closed-form s is the synthesized one, in
    # values and in the conductor of each entry
    import test_output_digests as corpora
    inputs = {name: premodular_form(name) for name in catalog_names} | oracles.su2_corpus()
    for name, (_, text) in corpora.premodular_inputs().items():
        if name.startswith("linear-") and name.endswith("-nos") or name in ("z2-i", "z2-zeta8"):
            inputs[name] = premodular_from_json(json.loads(text))
    assert len(inputs) == 19 + 3 * len(oracles.SU2_LEVELS) + 10 + 2
    for name, x in inputs.items():
        x = PremodularData(x.ring, x.dims, x.twists)
        exact = oracles.synthesized_s(x)
        for p in split_primes(x.dims.M, 2**60, 1):
            assert (_residues(x, "s", p) == residues(exact.num, exact.M, p)).all(), (name, p)
    for nu in range(1, 16, 2):
        data = premodular_form(f"ising:{nu}")
        exact = oracles.synthesized_s(PremodularData(data.ring, data.dims, data.twists))
        assert data.s == exact and (data.s.conductor == exact.conductor).all(), nu


@pytest.mark.parametrize("data", [oracles.su2(6), oracles.deligne(oracles.su2(6), oracles.svec())],
                         ids=["su2-6", "su2-6-svec"])
def test_classify_degeneracy_without_s_and_without_validation(data):
    # a datum never validated, with no s: the transparent set from the
    # residues of the s that balancing gives
    assert data.s is None and not data._derived
    assert classify_degeneracy(data) == oracles.classify_degeneracy_cycnum(oracles.with_s(data))
    assert data.s is None


@pytest.mark.parametrize("name", ["svec-x-semion", "su2-6"])
def test_an_absent_s_is_balanced_once_per_block_and_prime(name, monkeypatch):
    # an absent s is its balancing residues: validation and classification
    # evaluate the formula only to fill them (_synthesized), once per row
    # block and split prime, and compare them with no second evaluation; a
    # supplied s is still compared, test_a_tamper_by_the_first_prime_is_caught
    data = oracles.su2(6) if name == "su2-6" else premodular_form(name)
    data = PremodularData(data.ring, data.dims, data.twists)
    calls, balanced = [], premodular.data._balanced
    monkeypatch.setattr(premodular.data, "_balanced", lambda data, channels, p, rows: (
        calls.append((p, rows.start)), balanced(data, channels, p, rows))[1])
    assert validate_premodular(data).ok
    classify_degeneracy(data)
    blocks = _Channels(data.ring).blocks(data.dims.num.shape[1])
    assert calls and sorted(calls) == sorted((p, rows.start) for p in {p for p, _ in calls} for rows in blocks)


def test_channel_sums_on_a_product_table_equal_the_entry_route():
    # a sum over the channels of a.b is the gather x[C[a, b]] on a ring
    # with a product table, and the same values and dtype as the sum over
    # the entries (oracles.entry_channels) on int8, int64 and object x
    import test_output_digests as corpora
    rng = np.random.default_rng(50)
    rings = [premodular_from_json(json.loads(text)).ring for name, (_, text) in corpora.premodular_inputs().items()
             if name.startswith("linear-")]
    rings += [premodular_form(name).ring for name in ("svec", "toric", "z4-q:1", "svec-x-semion")]
    for ring in rings:
        table, entries = _Channels(ring), oracles.entry_channels(ring)
        assert table.table is not None and entries.table is None
        assert (table.width, table.row_sum) == (entries.width, entries.row_sum)
        wide = rng.integers(-2**40, 2**40, (ring.rank, 4))
        for x in (wide.astype(np.int8), wide, wide.astype(object) * 2**30):
            for rows in table.blocks(x.shape[1]):
                got, expected = table.sums(x, rows), entries.sums(x, rows)
                assert got.dtype == expected.dtype and got.shape == expected.shape and (got == expected).all()


def _rep_s3():
    """The character ring of the symmetric group on three letters with
    trivial twists: a non-pointed datum with rational dims 1, 1, 2."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0], mult[:, 0] = np.eye(3), np.eye(3)
    mult[1, 1, 0] = mult[1, 2, 2] = mult[2, 1, 2] = 1
    mult[2, 2, 0] = mult[2, 2, 1] = mult[2, 2, 2] = 1
    ring = oracles.ring_from_dense(mult, labels=["1", "sgn", "std"])
    return PremodularData.from_values(ring, [ONE, ONE, from_rational(2)], [ONE] * 3)


def _big_z2():
    """Z2 with d = 1 and theta = 2^70 sqrt(2), coefficients above 2^63,
    so its arrays hold Python ints: not a root of unity."""
    ring = to_premodular(from_gram([2], [Fraction(0)])).ring
    return PremodularData.from_values(ring, [ONE, ONE], [ONE, CycNum(8, [0, 2**70, 0, -2**70])])


BASES = ["svec", "rep-z2", "semion", "toric", "three-fermion", "svec-x-semion", "z4-q:1",
         "z4-q:3", "ising:1", "ising:7", "ising:13", "rep-s3", "random:3", "random:8"]


def _base(name):
    if name == "rep-s3":
        data = _rep_s3()
        assert validate_premodular(data).ok
        return oracles.with_s(data)
    if name.startswith("random:"):
        return to_premodular(random_slightly_degenerate(random.Random(int(name[7:])), max_order=16))
    data = premodular_form(name)
    return PremodularData.from_values(data.ring, list(data.dims), list(data.twists),
                                      [list(row) for row in data.s])


def _value(draw):
    """A CycNum at a small conductor, with small coefficients or with
    coefficients above 2^63."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 15, 16, 30]))
    big = draw(st.booleans())
    coeffs = [draw(st.integers(-3, 3)) + (2**70 if big and k == 0 else 0) for k in range(euler_phi(n))]
    return CycNum(n, coeffs, draw(st.integers(1, 3)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_array_checks_match_the_cycnum_oracle(data):
    # valid and tampered data, s supplied or absent: the same witnesses in
    # the same order, oracles.synthesized_s with the conductors of the
    # values' oracle, and the same transparent set, an absent s's on the
    # residue route
    base = _base(data.draw(st.sampled_from(BASES)))
    dims, twists, s = oracles.premodular_lists(base)
    r, dual = base.ring.rank, base.ring.dual
    a = data.draw(st.integers(0, r - 1))
    tamper = data.draw(st.sampled_from(["none", "dim", "twist", "dual pair", "dual root", "s", "s pair", "unit"]))
    if tamper == "dim":
        dims[a] = _value(data.draw)
    elif tamper == "twist":
        twists[a] = _value(data.draw)
    elif tamper == "dual pair":
        # theta_a = theta_{a*} keeps the dual checks and breaks the rest
        twists[a] = twists[dual[a]] = _value(data.draw)
    elif tamper == "dual root":
        # a root of unity passes the twist check too, and breaks balancing
        # or the conjugation of s
        twists[a] = twists[dual[a]] = make_root(data.draw(st.integers(0, 23)), 24)
    elif tamper == "s":
        s[a][data.draw(st.integers(0, r - 1))] = _value(data.draw)
    elif tamper == "s pair":
        b = data.draw(st.integers(0, r - 1))
        s[a][b] = s[b][a] = _value(data.draw)
    elif tamper == "unit":
        dims[base.ring.unit_index] = _value(data.draw)
    if data.draw(st.booleans()):
        s = None
    datum = PremodularData.from_values(base.ring, dims, twists, s)
    report = validate_premodular(datum)
    expected, expected_s = oracles.validate_premodular_cycnum(base.ring, dims, twists, s)
    assert report.to_json() == expected.to_json()
    if expected_s is not None:
        exact = oracles.with_s(datum)
        synthesized = [list(row) for row in exact.s]
        assert synthesized == expected_s
        assert [[x.conductor for x in row] for row in synthesized] == [
            [x.conductor for x in row] for row in expected_s]
        assert classify_degeneracy(datum) == oracles.classify_degeneracy_cycnum(exact)


def test_coefficients_above_int64_run_on_python_ints():
    # the twist check's residues of Python ints, against both oracles
    data = _big_z2()
    assert data.twists.num.dtype == object
    report = validate_premodular(data).to_json()
    assert report == {"violations": [{"kind": "TwistViolation", "witness": [1],
                                      "detail": "theta_a must be a root of unity"}]}
    assert _same_as_the_exact_checks(_big_z2) == report
    assert oracles.validate_premodular_cycnum(data.ring, *oracles.premodular_lists(data))[0].to_json() == report


# -- the residue route against the exact checks of tests/oracles.py ------------------


def _same_as_the_exact_checks(parsed):
    """Validate two copies of a datum, one by the residue route and one by
    the exact checks on coefficient arrays: the same report (kinds,
    witnesses, order, messages) or the same DatumTooLarge; once validation
    reaches s, an absent s's residues those of oracles.synthesized_s; and
    on a supplied s, or once validation reaches s, the same transparent
    pairs.  The exact s is synthesized once, by the exact checks, and
    that array serves the residue and transparency comparisons."""
    data, exact = parsed(), parsed()
    try:
        report = validate_premodular(data).to_json()
    except DatumTooLarge as exc:
        report = str(exc)
    s = None
    try:
        expected, s = oracles.validate_premodular_exact(exact)
        expected = expected.to_json()
    except DatumTooLarge as exc:
        expected = str(exc)
    assert report == expected
    reached = report == "ok" or isinstance(report, dict) and {
        v["kind"] for v in report["violations"]} == {"SConjugationViolation"}
    if data.s is None and reached:
        p = _first_prime(data)
        assert (_residues(data, "s", p) == residues(s.num, data.dims.M, p)).all()
    if reached or data.s is not None and data.s.shape == (data.ring.rank,) * 2:
        assert (_transparency(data) == oracles.transparency_exact(oracles.with_s(exact, s))).all()
    return report


def test_residue_checks_match_the_exact_ones_on_the_digest_corpora():
    import test_output_digests as corpora
    reports = []
    for name, (_, text) in corpora.premodular_inputs().items():
        obj = json.loads(text)
        try:
            premodular_from_json(obj)
        except ParseError:
            continue
        reports.append(_same_as_the_exact_checks(lambda: premodular_from_json(obj)))
    for name, (_, text) in corpora.metric_inputs().items():
        try:
            mg = loads_datum(text)
        except (ParseError, ValidationError):
            continue
        if mg.order <= 64:
            reports.append(_same_as_the_exact_checks(lambda: to_premodular(mg)))
    # both outcomes occur: the corpora hold valid data and data that fail late checks
    assert "ok" in reports and any(isinstance(r, dict) for r in reports)


def test_residue_checks_match_the_exact_ones_on_the_fuzz_pool():
    from test_fuzz import _mutated
    kinds = set()
    for seed in range(80, 1280):
        rng = random.Random(seed)
        obj = json.loads(_mutated(rng.choice(("ising:1", "ising:7")), rng.choice))
        try:
            premodular_from_json(obj)
        except (ParseError, TypeError):
            continue
        report = _same_as_the_exact_checks(lambda: premodular_from_json(obj))
        kinds |= {v["kind"] for v in report["violations"]} if isinstance(report, dict) else {report}
    assert {"ok", "DimensionCharacterViolation", "BalancingViolation"} <= kinds


def _first_prime(data):
    return split_primes(data.dims.M, 1, 1)[0]


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_residue_checks_match_the_exact_ones_past_int64_and_over_multiples_of_p(data):
    # a value tampered by a multiple of the first split prime p has the
    # same residues modulo p, and a denominator that p divides has none
    # there: the bounds must take further primes
    base = _base(data.draw(st.sampled_from(BASES)))
    dims, twists, s = oracles.premodular_lists(base)
    p, r = _first_prime(base), base.ring.rank
    a, b = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    value = data.draw(st.sampled_from(["dim", "twist", "s", "s pair"]))
    x = {"dim": dims[a], "twist": twists[a]}.get(value, s[a][b])
    k = data.draw(st.sampled_from([p, -p, 3 * p, 2**64 * p, 2**70 + 1]))
    den = data.draw(st.sampled_from([1, p, 2 * p, p * p]))
    coeffs = [c + (k * den if i == data.draw(st.integers(0, len(x.coeffs) - 1)) else 0)
              for i, c in enumerate(c * den for c in x.coeffs)]
    y = CycNum(x.M, coeffs, den) if data.draw(st.booleans()) else CycNum(x.M, [c * den for c in x.coeffs], den)
    if value == "dim":
        dims[a] = y
    elif value == "twist":
        twists[a] = twists[base.ring.dual[a]] = y
    else:
        s[a][b] = y
        if value == "s pair":
            s[b][a] = y
    if data.draw(st.booleans()):
        s = None
    _same_as_the_exact_checks(lambda: PremodularData.from_values(base.ring, dims, twists, s))


def _tampered(data, name, indices, p, with_s=True):
    """data with the entries at indices of dims, twists or s moved by p,
    which no residue modulo p shows; s dropped unless with_s."""
    dims, twists, s = oracles.premodular_lists(data)
    for index in indices:
        row, at = (s[index[0]], index[1]) if name == "s" else ({"dims": dims, "twists": twists}[name], index)
        row[at] = row[at] + p
    return PremodularData.from_values(data.ring, dims, twists, s if with_s else None)


def _z2_z4():
    return to_premodular(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)]))


@pytest.mark.parametrize("name, indices, with_s, kind", [
    ("dims", [2], True, "DimensionCharacterViolation"),  # label (0, 2) is self-dual
    ("s", [(2, 5)], True, "BalancingViolation"),
    ("twists", [1, 3], False, "TwistViolation"),  # (0, 1) and (0, 3) are dual
], ids=["dimension-character", "balancing", "twist"])
def test_a_tamper_by_the_first_prime_is_caught(name, indices, with_s, kind):
    base = _z2_z4()
    p = _first_prime(base)
    tampered = _tampered(base, name, indices, p, with_s)
    assert all((residues(getattr(tampered, f).num, 8, p) == residues(getattr(base, f).num, 8, p)).all()
               for f in ("dims", "twists", "s") if getattr(tampered, f) is not None)
    report = _same_as_the_exact_checks(lambda: _tampered(base, name, indices, p, with_s))
    assert {v["kind"] for v in report["violations"]} == {kind}


def test_transparency_sees_a_tamper_by_the_first_prime():
    base = _z2_z4()
    assert validate_premodular(base).ok
    p = _first_prime(base)
    tampered = _tampered(base, "s", [(0, 1)], p)
    assert not _transparency(tampered)[0, 1] and _transparency(base)[0, 1]
    assert (_transparency(tampered) == oracles.transparency_exact(tampered)).all()
