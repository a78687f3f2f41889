"""The acceptance gate: every criterion at its stated tolerance (exact)."""

from odirac import acceptance

_RESULTS = {}


def _run(fn):
    res = fn()
    _RESULTS[res["name"]] = res
    status = "PASS" if res["ok"] else "FAIL"
    print(f"{status}  {res['name']}  ({res['seconds']}s)")
    return res


def test_criterion_01_sl3_worked_example():
    res = _run(acceptance.criterion_1_sl3_example)
    assert res["ok"], res["details"]
    assert res["seconds"] < 10


def test_criterion_02_kostant_formula():
    res = _run(acceptance.criterion_2_kostant)
    assert res["ok"], res["details"]
    assert res["seconds"] < 30


def test_criterion_03_square_formula():
    res = _run(acceptance.criterion_3_square)
    assert res["ok"], res["details"]
    assert res["details"]["first_failure"] is None


def test_criterion_04_simple_verma_theorem():
    res = _run(acceptance.criterion_4_simple_verma)
    assert res["ok"], res["details"]


def test_criterion_05_nonvanishing():
    res = _run(acceptance.criterion_5_nonvanishing)
    assert res["ok"], res["details"]


def test_criterion_06_higher_index():
    res = _run(acceptance.criterion_6_higher_index)
    assert res["ok"], res["details"]
    assert res["details"]["max_jordan_size"] >= 2
    assert res["details"]["search_matches_fixture"]


def test_criterion_07_exact_circle():
    res = _run(acceptance.criterion_7_exact_circle)
    assert res["ok"], res["details"]


def test_criterion_08_hodge():
    res = _run(acceptance.criterion_8_hodge)
    assert res["ok"], res["details"]
    assert res["details"]["negative test failed positivity"]


def test_criterion_09_vogan_audit():
    res = _run(acceptance.criterion_9_vogan)
    assert res["ok"], res["details"]


def test_criterion_10_structural_suites():
    res = _run(acceptance.criterion_10_structural)
    assert res["ok"], res["details"]


# The fewest runs or blocks each check may visit, so that an edit to a
# criterion's scenario documents cannot quietly shrink what it covers.
COVERAGE_FLOORS = {
    "sl(3) worked example": {"simple_verma_runs": 1},
    "Kostant kernel formula": {"kostant_runs": 9},
    "square formula": {"square_blocks": 98},
    "simple Verma theorem": {"simple_verma_runs": 9},
    "nonvanishing": {"nonvanishing_runs": 5},
    "higher Dirac index": {"index_blocks": 142},
    "exact circle": {"circle_weights": 34},
    "Hodge comparison": {"hodge_weights": 35, "positivity_weights": 55},
    "Vogan audit": {"vogan_runs": 14},
}


def test_coverage_floors():
    assert len(_RESULTS) == 10, "criteria must run before the coverage check"
    for name, floors in COVERAGE_FLOORS.items():
        visited = _RESULTS[name]["details"]["visited"]
        assert set(visited) == set(floors), name
        for check, floor in floors.items():
            assert visited[check] >= floor, (name, check, visited[check])


def test_total_runtime_budget():
    # the full suite must stay inside the three-minute budget
    assert len(_RESULTS) == 10, "criteria must run before the budget check"
    total = sum(r["seconds"] for r in _RESULTS.values())
    print(f"acceptance total: {total:.1f}s")
    assert total < 180


def test_selftest_builds_each_finite_module_once(monkeypatch):
    """The finite modules of the suite come from the context caches: one
    `finite_dim_simple` per distinct (pair, highest weight)."""
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold process
    built = []
    build = scenarios.finite_dim_simple

    def counted(pair, cb, lam):
        built.append((pair, lam))
        return build(pair, cb, lam)

    monkeypatch.setattr(scenarios, "finite_dim_simple", counted)
    results, _ = acceptance.run_all(verbose=False)
    assert all(r["ok"] for r in results)
    assert len(set(built)) == len(built) == 9
