"""Table 3 reproduction: the BEOL rule configuration matrix."""

import pytest

from repro.eval import format_rule_table, paper_rules, rules_for_technology
from repro.router import OptRouter, ViaRestriction
from repro.clips import SyntheticClipSpec, make_synthetic_clip


def test_table3_configuration_matrix(results_dir):
    rules = paper_rules()
    table = format_rule_table(rules, title="Table 3 (reproduced)")
    print("\n" + table)
    (results_dir / "table3.txt").write_text(table + "\n")

    assert len(rules) == 11
    by_name = {r.name: r for r in rules}
    assert by_name["RULE1"].via_restriction is ViaRestriction.NONE
    assert by_name["RULE6"].via_restriction is ViaRestriction.ORTHOGONAL
    assert by_name["RULE9"].via_restriction is ViaRestriction.FULL
    assert [by_name[f"RULE{i}"].sadp_min_metal for i in (2, 3, 4, 5)] == [2, 3, 4, 5]


def test_n7_exclusions_match_paper():
    names = [r.name for r in rules_for_technology("N7-9T")]
    assert names == ["RULE1", "RULE3", "RULE4", "RULE5", "RULE6", "RULE8"]


@pytest.mark.benchmark(group="table3")
def test_bench_model_build_per_rule(benchmark):
    """ILP construction cost across the Table 3 rule spectrum."""
    clip = make_synthetic_clip(
        SyntheticClipSpec(nx=7, ny=10, nz=4, n_nets=3, sinks_per_net=1),
        seed=1,
    )
    rules = paper_rules()
    router = OptRouter()

    def build_all():
        return [router.build(clip, rule).csr.n_vars for rule in rules]

    sizes = benchmark(build_all)
    # SADP rules add p variables, so RULE2 (SADP >= M2) builds the
    # largest model of the restriction-free tier.
    assert sizes[1] > sizes[0]
