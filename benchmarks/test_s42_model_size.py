"""Section 4.2 reproduction: variable/constraint count analysis.

The paper derives how ILP size scales with |A| (arcs), |V| (vertices)
and |N| (nets), and with the via-restriction degree α and via-shape
size β.  This bench measures the built models and checks the claimed
asymptotic behaviours empirically:

- no-restriction variables grow as O(|A| x |N|);
- via restrictions add constraints but no variables;
- SADP adds O(|V| x |N|) p-variables;
- via shapes add O(β x |V| x |N|)-ish variables and O(β²|V||N|)
  blocking constraints.
"""

import pytest

from repro.analysis import lint_routing_ilp
from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.router import OptRouter, RuleConfig, ViaRestriction
from repro.router.graph import build_graph
from repro.util import format_table


def clip_with(nx, ny, nz, n_nets, seed=0):
    return make_synthetic_clip(
        SyntheticClipSpec(
            nx=nx, ny=ny, nz=nz, n_nets=n_nets, sinks_per_net=1,
            access_points_per_pin=2, boundary_pin_prob=0.3,
        ),
        seed=seed,
    )


def model_stats(clip, rules):
    return OptRouter().build(clip, rules).csr.stats()


class TestScalingLaws:
    def test_variables_scale_with_nets(self):
        base = clip_with(6, 8, 3, 1)
        sizes = []
        for n_nets in (1, 2, 3):
            clip = clip_with(6, 8, 3, n_nets)
            if len(clip.nets) != n_nets:
                pytest.skip("generator dropped a colliding net")
            sizes.append(model_stats(clip, RuleConfig())["n_vars"])
        # Per-net variable blocks: roughly linear growth.
        growth1 = sizes[1] / sizes[0]
        growth2 = sizes[2] / sizes[1]
        assert 1.5 < growth1 < 2.5
        assert 1.2 < growth2 < 1.8
        del base

    def test_via_restriction_adds_constraints_not_vars(self):
        clip = clip_with(6, 8, 3, 2)
        none = model_stats(clip, RuleConfig())
        ortho = model_stats(
            clip, RuleConfig(via_restriction=ViaRestriction.ORTHOGONAL)
        )
        full = model_stats(clip, RuleConfig(via_restriction=ViaRestriction.FULL))
        assert ortho["n_vars"] == none["n_vars"]
        assert full["n_vars"] == none["n_vars"]
        # FULL writes one clique row per 2x2 block of via sites: it
        # adds rows, fewer than ORTHOGONAL's one row per pair.
        assert ortho["n_constraints"] > full["n_constraints"] > none["n_constraints"]

    def test_sadp_adds_p_variables(self):
        clip = clip_with(6, 8, 3, 2)
        none = model_stats(clip, RuleConfig())
        sadp = model_stats(clip, RuleConfig(sadp_min_metal=2))
        added = sadp["n_vars"] - none["n_vars"]
        n_vertices = clip.n_vertices
        n_nets = len(clip.nets)
        assert 0 < added <= 2 * n_vertices * n_nets  # <= two p per vertex/net

    def test_via_shapes_add_vars_and_blocking(self):
        clip = clip_with(6, 8, 3, 2)
        none = model_stats(clip, RuleConfig())
        shaped = model_stats(clip, RuleConfig(allow_via_shapes=True))
        assert shaped["n_vars"] > none["n_vars"]
        assert shaped["n_constraints"] > none["n_constraints"]

    def test_graph_arc_count_formula(self):
        # |A| for a clip: 2 x (wire pairs + via pairs).
        clip = clip_with(6, 8, 3, 1)
        g = build_graph(clip, RuleConfig())
        wire_pairs = 0
        for z in range(clip.nz):
            if clip.horizontal[z]:
                wire_pairs += (clip.nx - 1) * clip.ny
            else:
                wire_pairs += clip.nx * (clip.ny - 1)
        via_pairs = clip.nx * clip.ny * (clip.nz - 1)
        assert len(g.arcs) == 2 * (wire_pairs + via_pairs)


_TABLE_RULES = (
    RuleConfig(name="RULE1"),
    RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
    RuleConfig(name="RULE9", via_restriction=ViaRestriction.FULL),
    RuleConfig(name="RULE2", sadp_min_metal=2),
    RuleConfig(name="SHAPES", allow_via_shapes=True),
)


def test_s42_model_size_table(results_dir):
    rows = []
    clip = clip_with(7, 10, 4, 3)
    for rules in _TABLE_RULES:
        stats = model_stats(clip, rules)
        rows.append(
            (
                rules.name,
                stats["n_vars"],
                stats["n_integer_vars"],
                stats["n_constraints"],
                stats["n_nonzeros"],
            )
        )
    table = format_table(
        ("rule", "vars", "int vars", "constraints", "nonzeros"),
        rows,
        title="Section 4.2 (reproduced): ILP size per rule configuration",
    )
    print("\n" + table)
    (results_dir / "s42_model_size.txt").write_text(table + "\n")


def test_s42_lint_stats_table(results_dir):
    """Pre-solve lint pass over the Section 4.2 models.

    Every built paper-configuration ILP must lint clean of ERROR
    findings (the clip is routable, so an error would be a false
    positive by the linter's soundness contract); warning counts are
    recorded as a formulation-bloat regression canary.
    """
    clip = clip_with(7, 10, 4, 3)
    router = OptRouter()
    rows = []
    for rules in _TABLE_RULES:
        report = lint_routing_ilp(router.build(clip, rules))
        assert not report.has_errors, [str(f) for f in report.errors]
        rows.append(
            (
                rules.name,
                report.stats["n_vars"],
                report.stats["n_constraints"],
                len(report.warnings),
                report.stats.get("n_duplicate_row", 0),
                report.stats.get("n_dominated_row", 0),
                report.stats.get("n_unused_variable", 0),
            )
        )
    table = format_table(
        ("rule", "vars", "constraints", "warnings", "dup rows",
         "dominated", "unused vars"),
        rows,
        title="Pre-solve lint statistics per rule configuration",
    )
    print("\n" + table)
    (results_dir / "s42_lint_stats.txt").write_text(table + "\n")


def test_lint_time_stays_linear_in_rows():
    """Support-signature bucketing keeps lint near-linear in row count.

    The via-shape configuration builds the largest Section 4.2 model;
    an all-pairs duplicate scan made lint dominate bench time here, so
    the bound is a regression canary for the bucketed implementation.
    """
    import time

    clip = clip_with(7, 10, 4, 3)
    ilp = OptRouter().build(clip, RuleConfig(allow_via_shapes=True))
    t0 = time.perf_counter()
    report = lint_routing_ilp(ilp)
    elapsed = time.perf_counter() - t0
    assert not report.has_errors
    # Generous wall-clock ceiling (~50x observed on a laptop): catches
    # a quadratic regression without flaking on slow CI machines.
    assert elapsed < 5.0, f"lint took {elapsed:.2f}s on {ilp.csr.stats()}"


@pytest.mark.benchmark(group="s42")
def test_bench_model_build(benchmark):
    clip = clip_with(7, 10, 4, 3)
    router = OptRouter()
    ilp = benchmark(router.build, clip, RuleConfig(sadp_min_metal=2))
    assert ilp.csr.n_vars > 0
