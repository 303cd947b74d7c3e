"""Acceptance gate: the twelve verification criteria.

Each test drives one criterion of the verification battery at the level
its contract demands, prints a single PASS/FAIL line, and pins the
documented runtime budget.  Every quantity checked is an exact integer;
the tolerance everywhere is zero.  A handful of spot checks recompute
small cases through the deliberately slow oracles in helpers.py so the
gate does not rest solely on the library's own fast paths.
"""

import sys

import numpy as np

from bentfn import (
    PermTable,
    SubfieldFn,
    concat4,
    gmm,
    make_field,
    mm,
    psap,
    spread_labels,
    validate_gps_params,
)
from bentfn.verify import corpus, run_criterion, run_suite

from helpers import SlowField, naive_anf_degree, naive_walsh


def report(r, budget=None):
    line = (f"ACCEPTANCE {r.cid:02d} {r.name}: "
            f"{'PASS' if r.passed else 'FAIL'} ({r.seconds:.2f}s, exact) "
            f"{r.detail}")
    print(line)
    assert r.passed, r.detail
    if budget is not None:
        assert r.seconds < budget, f"criterion {r.cid} exceeded {budget}s"


def bent_by_naive_walsh(f) -> bool:
    w = naive_walsh(f.with_space(None).table)
    want = 1 << (f.n // 2)
    return all(abs(v) == want for v in w)


def test_criterion_01_bentness_grid():
    report(run_criterion(1), budget=120)
    # independent spot check: the two smallest grid members through the
    # double-sum transform
    ctx = make_field(2)
    assert bent_by_naive_walsh(psap(ctx, SubfieldFn.trace_form(ctx, 2)))
    fam = [mm(ctx, PermTable.identity(2)),
           mm(ctx, PermTable.inverse_map(ctx)) ^ 1]
    assert bent_by_naive_walsh(gmm(make_field(1), 1, fam))


def test_criterion_02_degree_law():
    report(run_criterion(2), budget=5)
    ctx = make_field(3)
    f = psap(ctx, SubfieldFn.trace_form(ctx, 3))
    assert naive_anf_degree(f.table) == 3


def test_criterion_03_outside_completed_class():
    # the dim-14 search is part of the full level per its contract
    report(run_criterion(3, level="full"), budget=600)


def test_criterion_04_unique_subspace_property():
    report(run_criterion(4), budget=300)


def test_criterion_05_trace_sum():
    report(run_criterion(5), budget=60)
    # schoolbook recount at m=4
    slow = SlowField(4, make_field(4).irred)
    for c in range(1, 16):
        for d in range(1, 16):
            seen = {slow.trace(slow.mul(d, slow.inv(x) ^ slow.inv(x ^ c)))
                    for x in range(16) if x not in (0, c)}
            assert seen == {0, 1}


def test_criterion_06_dual_formulas():
    report(run_criterion(6))


def test_criterion_07_decomposition_trichotomy():
    report(run_criterion(7), budget=300)


def test_criterion_08_concat_rule():
    report(run_criterion(8))
    # one designed case through the double-sum transform
    ctx = make_field(2)
    g = mm(ctx, PermTable.identity(2)).with_space(None)
    assert bent_by_naive_walsh(concat4(g, g, g, g ^ 1))
    assert not bent_by_naive_walsh(concat4(g, g, g, g))


def test_criterion_09_substitution_duality():
    report(run_criterion(9))


def test_criterion_10_semibent_planes():
    report(run_criterion(10, level="full"))


def test_criterion_11_character_sums():
    report(run_criterion(11), budget=30)
    # recount one character sum with schoolbook arithmetic
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    slow = SlowField(4, ctx.irred)
    labels = spread_labels(ctx, pr, "g")
    u, v = 3, 7
    for gamma in ctx.subfield(2):
        acc = 0
        for y in range(1, 16):   # B(gamma) lies off the line y = 0
            for x in np.flatnonzero(labels[y] == gamma).tolist():
                acc += 1 - 2 * (slow.trace(slow.mul(u, x))
                                ^ slow.trace(slow.mul(v, y)))
        first = slow.pow(gamma, 1 << pr.ell) == ctx.trace_rel_arr(2)[
            slow.mul(v, slow.pow(u, (-pr.e) % ctx.order))]
        assert acc == (12 if first else -4)


def test_criterion_12_structural_suite():
    report(run_criterion(12))


# The detail strings of the battery at seed 0, pinned as the library
# printed them before the array kernels and the batched classifier.
FAST_DETAILS = {
    1: "34 builder outputs, all bent",
    2: "20 functions at the extremal degree",
    3: "(4,1) dim-10: dim-5 subspace absent, index 2",
    4: "12 permutations decided; identity counterexample (0, 1, 0, 2) verified literally",
    5: "86309 (c, d) pairs, every sum takes both values",
    6: ("combiner and spread closed-form duals match the transform; "
        "dual of dual restores all 34 corpus functions"),
    7: "restriction and dual-derivative labels agree on 12132 planes",
    8: "50 seeded quadruples plus both designed cases agree",
    9: "50 admissible substitutions, both constancy tests agree",
    10: ("(4,2,2): 35 second-block planes all semibent, 0 semibent planes elsewhere "
         "(recorded only); (5,1,3): 155 second-block planes all semibent"),
    11: "1020 character sums match the two-branch closed form",
    12: ("Parseval on the corpus, restriction round trip, "
         "20 affine invariance trials, partition class sizes"),
}
FULL_DETAILS = {
    3: "(4,1) dim-10: dim-5 subspace absent, index 2; (5,2) dim-14: dim-7 subspace absent",
    10: ("(4,2,2): 35 second-block planes all semibent, 0 semibent planes elsewhere "
         "(recorded only); (5,1,3): 155 second-block planes all semibent, "
         "0 semibent planes elsewhere (recorded only)"),
}


def test_detail_strings_pinned():
    # the corpus is memoised per seed; another seed reads the same details
    for seed in (0, 1):
        results = run_suite("fast", seed=seed)
        assert {r.cid: r.detail for r in results} == FAST_DETAILS, seed
        assert all(r.passed for r in results)
    for cid, detail in FULL_DETAILS.items():
        r = run_criterion(cid, level="full", seed=0)
        assert r.passed and r.detail == detail


def test_corpus_is_built_once_per_seed():
    assert corpus(0) is corpus(0)
    zero, one = corpus(0), corpus(1)
    assert [label for label, _ in zero] == [label for label, _ in one]
    assert ([label for (label, f), (_, g) in zip(zero, one) if f != g]
            == [label for label, _ in zero if label.startswith("gmm ")])


def test_suite_builds_each_instance_once(monkeypatch):
    # every call of these builders in one fast suite from cleared caches,
    # the library's own included (psap calls gpsap, build_cor_ex gmm)
    import bentfn.verify as verify

    names = ("gpsap", "gmm", "build_cor_ex", "psffff", "partition_bent")
    counts = dict.fromkeys(names, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bentfn"]
    for name in names:
        orig = getattr(verify, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
    for val in vars(verify).values():
        if getattr(val, "__module__", None) == verify.__name__ and hasattr(val, "cache_clear"):
            val.cache_clear()
    assert all(r.passed for r in run_suite("fast", seed=0))
    assert counts == {"gpsap": 20, "gmm": 6, "build_cor_ex": 2, "psffff": 2,
                      "partition_bent": 2}


def test_corpus_spans_every_family():
    labels = [label for label, _ in corpus()]
    for stem in ("psap", "gpsap(", "trace-form", "gmm", "cor-ex1", "cor-ex2",
                 "psffff", "partition"):
        assert any(stem in lab for lab in labels), f"missing {stem}"
