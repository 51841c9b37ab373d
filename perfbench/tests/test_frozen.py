"""Frozen verdicts: the check itself, the seed, and facts of the acceptance suites."""

from collections import Counter

import pytest

import worker
import workloads

# the cheapest member of each part of each workload
SMALLEST = {
    "census": ["poset0", "c1"],
    "levels": ["poset0", "c1"],
}

# a few cheap members per workload, for the seed-order check
SMALL = {
    "census": ["poset0", "poset1", "discrete2", "walking_cell", "c1", "c2", "c3"],
    "levels": ["poset0", "span", "bc2", "from_poset1", "c1", "c2", "c3"],
}


def members(workload, work, names):
    built = {m.name: m for m in workloads.build(workload, str(work))}
    return [built[n] for n in names]


def run(members_, frozen):
    checker = worker.Checker(frozen)
    worker.run_pass(members_, checker)
    return checker


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_smoke_run_of_the_smallest_members(workload, work):
    chosen = members(workload, work, SMALLEST[workload])
    checker = run(chosen, worker.load_frozen(workload))
    assert checker.failures == []
    assert checker.attempted == sum(len(m.ops) for m in chosen) > 0


def test_digest_check_names_a_perturbed_expected_value(work):
    frozen = dict(worker.load_frozen("census"))
    member, = members("census", work, ["poset1"])
    op = member.ops[0].name
    code, sha = frozen[op]
    frozen[op] = [code, sha[:-1] + ("0" if sha[-1] != "0" else "1")]
    checker = run([member], frozen)
    assert len(checker.failures) == 1 and checker.failures[0].startswith(op + ":")

    frozen[op] = [1 - code, sha]
    assert len(run([member], frozen).failures) == 1


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_two_seeds_order_members_differently_with_identical_digests(workload, work):
    chosen = members(workload, work, SMALL[workload])
    a = workloads.order(chosen, 1)
    b = next(o for o in (workloads.order(chosen, s) for s in range(2, 50))
             if [m.name for m in o] != [m.name for m in a])
    frozen = worker.load_frozen(workload)
    run_a, run_b = run(a, frozen), run(b, frozen)
    assert run_a.failures == run_b.failures == []
    assert run_a.verdicts == run_b.verdicts


def test_every_op_has_a_frozen_verdict(work):
    for workload in workloads.WORKLOADS:
        names = {op.name for m in workloads.build(workload, str(work)) for op in m.ops}
        assert names == set(worker.load_frozen(workload)), workload


# -- spot checks against facts the acceptance suites assert ------------------


def test_check_kan_exits_1_only_for_walking_cell():
    frozen = worker.load_frozen("census")
    kan = {op: code for op, (code, _) in frozen.items() if op.endswith("/check-kan")}
    assert len(kan) == 29
    assert {op for op, code in kan.items() if code != 0} == {"walking_cell/check-kan"}


def test_38_of_572_anchored_variants_are_torsors():
    frozen = worker.load_frozen("levels")
    codes = Counter(code for op, (code, _) in frozen.items() if "/torsor/" in op)
    assert codes == {0: 38, 1: 572 - 38}


def test_broken_objects_give_their_exact_witnesses(work):
    frozen = worker.load_frozen("levels")
    cech, = members("levels", work, ["cech"])
    expected = {
        "cech/broken-poset1-nerve": (2, (0, 1), (0, 2), "not surjective"),
        "cech/broken-idempotent-nerve": (2, (0, 1), (0, 2), "not injective"),
        "cech/broken-punctured-cech": (3, (0, 1, 2), (0, 3), "not surjective"),
    }
    checker = worker.Checker(frozen)
    for op in cech.ops:
        if op.name in expected:
            report = op.call()
            assert report.witness == expected[op.name]
            assert checker.run(op) >= 0
    assert checker.failures == [] and checker.attempted == 3
    assert all(frozen[name][0] == 1 for name in expected)
    assert all(code == 0 for op, (code, _) in frozen.items()
               if op.startswith("cech/") and op not in expected)


def test_every_skeleton_has_one_component(work):
    frozen = worker.load_frozen("census")
    skeletons = [op for m in workloads.build("census", str(work))
                 for op in m.ops if "/skeleton/" in op.name]
    assert len(skeletons) == 8 * 10
    for op in skeletons:
        assert op.call().components == 1, op.name
        assert frozen[op.name][0] == 0, op.name
