"""Unit tests of the ILP formulation internals."""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.semantics import prove_restriction
from repro.analysis.semantics.restriction import _delta_rows
from repro.clips import (
    Clip,
    ClipNet,
    ClipPin,
    SyntheticClipSpec,
    make_synthetic_clip,
)
from repro.clips.clip import paper_directions
from repro.eval import rules_for_technology
from repro.ilp import SolveStatus, solve_with_highs
from repro.ilp.relaxation import solve_root
from repro.router import RuleConfig, ViaRestriction, build_routing_ilp
from repro.router.formulation import BaseFormulation


def pin(*vertices):
    return ClipPin(access=frozenset(vertices))


def make_clip(nets, nx=5, ny=5, nz=3, obstacles=frozenset()):
    return Clip(
        name="f", nx=nx, ny=ny, nz=nz,
        horizontal=paper_directions(nz), nets=tuple(nets),
        obstacles=frozenset(obstacles),
    )


def two_pin_clip():
    return make_clip([ClipNet("a", (pin((1, 1, 0)), pin((1, 3, 0))))])


def three_pin_clip():
    return make_clip(
        [ClipNet("a", (pin((2, 2, 0)), pin((2, 0, 0)), pin((2, 4, 0))))]
    )


class TestVariableStructure:
    def test_two_pin_nets_share_e_and_f(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert nv.n_sinks == 1
        for arc_index, e in nv.e.items():
            assert nv.f[arc_index] is e  # aliased, no separate column

    def test_multi_pin_nets_get_separate_f(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert nv.n_sinks == 2
        separate = sum(
            1 for arc_index, e in nv.e.items() if nv.f[arc_index] is not e
        )
        assert separate == len(nv.e)

    def test_virtual_structure(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert len(nv.supersinks) == 2
        # source pin: 1 access; sinks: 1 access each -> 3 virtual arcs.
        assert len(nv.virtual_arcs) == 3

    def test_foreign_pin_vertices_pruned(self):
        clip = make_clip(
            [
                ClipNet("a", (pin((1, 0, 0)), pin((1, 4, 0)))),
                ClipNet("b", (pin((3, 2, 0)), pin((3, 4, 0)))),
            ]
        )
        ilp = build_routing_ilp(clip, RuleConfig())
        graph = ilp.graph
        a_vars = ilp.nets[0]
        foreign = graph.vid(3, 2, 0)
        for arc_index in a_vars.e:
            arc = graph.arcs[arc_index]
            assert foreign not in (arc.tail, arc.head)

    def test_obstacle_vertices_pruned_for_all(self):
        clip = make_clip(
            [ClipNet("a", (pin((1, 0, 0)), pin((1, 4, 0))))],
            obstacles={(2, 2, 0)},
        )
        ilp = build_routing_ilp(clip, RuleConfig())
        blocked_vid = ilp.graph.vid(2, 2, 0)
        for nv in ilp.nets:
            for arc_index in nv.e:
                arc = ilp.graph.arcs[arc_index]
                assert blocked_vid not in (arc.tail, arc.head)


class TestConstraintStructure:
    def test_sadp_adds_p_vars_only_on_sadp_layers(self):
        clip = two_pin_clip()
        ilp = build_routing_ilp(clip, RuleConfig(sadp_min_metal=3))
        nv = ilp.nets[0]
        slots = {
            ilp.graph.vertex_xyz(vid)[2]
            for vid in list(nv.p_pos) + list(nv.p_neg)
        }
        # slot 0 = M2 (not SADP), slots 1,2 = M3,M4 (SADP).
        assert slots and 0 not in slots

    def test_no_sadp_no_p_vars(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert not nv.p_pos and not nv.p_neg

    def test_via_restriction_scales_constraints(self):
        clip = two_pin_clip()
        n_none = build_routing_ilp(clip, RuleConfig()).csr.n_rows
        n_4 = build_routing_ilp(
            clip, RuleConfig(via_restriction=ViaRestriction.ORTHOGONAL)
        ).csr.n_rows
        n_8 = build_routing_ilp(
            clip, RuleConfig(via_restriction=ViaRestriction.FULL)
        ).csr.n_rows
        # Two cut layers of 5x5 sites, all usable: ORTHOGONAL writes
        # one row per orthogonal pair (40 a layer), FULL one row per
        # 2x2 block (16 a layer) in place of its 72 pairs.
        assert n_4 - n_none == 2 * 40
        assert n_8 - n_none == 2 * 16


class TestFlowSemantics:
    def test_source_emits_sink_count_units(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        solution = solve_with_highs(ilp.csr)
        assert solution.status is SolveStatus.OPTIMAL
        nv = ilp.nets[0]
        out_from_source = sum(
            solution.values[nv.f[a].index]
            for a in nv.virtual_arcs
            if ilp.graph.arcs[a].tail == nv.supersource
        )
        assert out_from_source == pytest.approx(2.0)

    def test_each_sink_absorbs_one_unit(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        solution = solve_with_highs(ilp.csr)
        nv = ilp.nets[0]
        for sink in nv.supersinks:
            inflow = sum(
                solution.values[nv.f[a].index]
                for a in nv.virtual_arcs
                if ilp.graph.arcs[a].head == sink
            )
            assert inflow == pytest.approx(1.0)

    def test_objective_counts_only_physical_arcs(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        virtual_indices = {
            ilp.nets[0].e[a].index for a in ilp.nets[0].virtual_arcs
        }
        for index in virtual_indices:
            assert ilp.csr.obj[index] == 0.0


#: SHA-256 over every array and name list of a cold-built routing ILP.
#: The canonical text (and with it the solve-cache key) is
#: order-invariant, but HiGHS breaks ties by row and column order, so
#: the arrays themselves are pinned: same rows, same order, same
#: column order within each row, same signed-zero constants.  The 14
#: models with neither FULL via blocking nor an SADP layer keep the
#: digests recorded while the formulation still wrote its rows as
#: ``LinExpr`` sums; the other 26 were re-pinned when the rule rows
#: took their strong form (``WEAK_GOLDEN_ARRAYS`` keeps the digests
#: of the weak rows, which ``RoutingIlp.milp_model`` still writes).
GOLDEN_ARRAYS = {
    "pool-7003-RULE1": "03ebcf6efb52fed860db0bcac7aaf6ccbb9ca91d6b81ea776e84b4de133def95",
    "pool-7003-RULE2": "6cc8c01782af4c59267aa43e63e9632f1aaafe6ddc3de37ca8e6714d5f1ea3c0",
    "pool-7003-RULE3": "2303634bd95a7f7f417c5d164c4ead2ba01f6af594158a2660ffad5cc4e2c1a6",
    "pool-7003-RULE4": "2ce411d1139f47b77887a9599903e42ca7c5eb4294eb8e396147bef1750d1115",
    "pool-7003-RULE5": "03ebcf6efb52fed860db0bcac7aaf6ccbb9ca91d6b81ea776e84b4de133def95",
    "pool-7003-RULE6": "3fa1bf2339b39c6c67c2a104475d53d9407517e5c556529759e17d95c1491964",
    "pool-7003-RULE7": "4745535e37c77b48ea909b1b582fe43b061e1b1cae8dbd12996fafb72cf67935",
    "pool-7003-RULE8": "5cad2d68b6bca2788b38ee7ec36dc63ef2b40d25ab59b88cbe526ddd05be459f",
    "pool-7003-RULE9": "e5de2515d6b032e1148726907cddee651b8b11255a5ab215d7a46de1ac4b34ff",
    "pool-7003-RULE10": "c646a4ad2ef51290e07911f04a1f2be0119ade2f6bef245957dc6e01074dbd4e",
    "pool-7003-RULE11": "e8f937a9fd25d3c8c87355537d219f649e6ce1aef295d80f6488eb3e4e1884aa",
    "pool-7030-RULE1": "b2e7c07c003d6b22fab6365dedd5faed748b07c2dd361fb6693d7f9d35e9d8b0",
    "pool-7030-RULE2": "cc35bd0a4dbbc6d532600af3b7e5cff716470a74a422e72599cb5c1a0f9c1380",
    "pool-7030-RULE3": "f6e65bb8f46117ac65eedb74b2744f92621e90df8e43de80791d9a08a2dfa1b7",
    "pool-7030-RULE4": "4e34851bde4c793670a64ab9dd907fd2551bb833a9d453ad4bfe45fca8ed0e6a",
    "pool-7030-RULE5": "b2e7c07c003d6b22fab6365dedd5faed748b07c2dd361fb6693d7f9d35e9d8b0",
    "pool-7030-RULE6": "20ff346584d840d39525272892037546b34e6245840e8491f3536b98cebdb281",
    "pool-7030-RULE7": "3fd9a00a274e6bebc530245ecc2db8ca23e4c71dcb18e3df9b65e52120b4c729",
    "pool-7030-RULE8": "e360e6209f2c6e3551bee9d93d82be71305d34ca0767022b90b4574c6fb6cf59",
    "pool-7030-RULE9": "c94b2d08a7778f14efc2ed162931e7dd907f580d112fc8fbb067edbf11c251ac",
    "pool-7030-RULE10": "9afd512a1f3940d4af7577b522e17f3a343b7114ff3592ec958dafcee3a9ef81",
    "pool-7030-RULE11": "95e34660791ccd2cd2d788770d5bccc0ceac9f3f59eeeb033d760eb779954545",
    "multi-0-RULE1": "0f1174bcb33a216b4ee3e19c8ecd13727d43ac51a6e993705a7ef727006b566d",
    "multi-0-RULE3": "5b9b3c74cda4e5f3450ec0d6ecc9f8c9c9f0a2ed859323efedc28f715b55dec0",
    "multi-0-RULE4": "8377ef416ff732ecda99606503648867314376475b5e6269c50bb687731bc170",
    "multi-0-RULE5": "0f1174bcb33a216b4ee3e19c8ecd13727d43ac51a6e993705a7ef727006b566d",
    "multi-0-RULE6": "45dd57deafa524d9d1383a0f84e1444e6af5eadd999968820536c284f02c8191",
    "multi-0-RULE8": "1a76828bb776a543e7079de5f2c74843f3f493336c4e488064f1dc64f2b17435",
    "multi-2-RULE1": "8626dc962533d35af4d97a01457c0941e8b0738a0955cfa72938c6489a396ac2",
    "multi-2-RULE3": "7f57b37ebbd66a519276e09c7f6039698f46b4628891476b0c760991e30318f3",
    "multi-2-RULE4": "8b6ab38d0b45b4baadb32b1a8db170af559e953fac5ae0b295b94c24751ead6a",
    "multi-2-RULE5": "8626dc962533d35af4d97a01457c0941e8b0738a0955cfa72938c6489a396ac2",
    "multi-2-RULE6": "6a55ecedba652233f3c794df0476490efd28fca5db2db7e5a004fe26d82f08ab",
    "multi-2-RULE8": "97fd7fd56726066fe9f8ea09027dc8c29406c33e5951555460ea9f7d25d5de81",
    "shapes-NONE-2": "44973a7026aa775966fb8197bb7e08a2232e6f8ac79c83d0db15698f61287be6",
    "shapes-NONE-None": "85f5052cff9bff6e77eba8b5c37a6e1cd1feac21723c1ba2a8741d40c77217d2",
    "shapes-ORTHOGONAL-2": "4ac2a7a28c1a41f06ca801e5506ec9037e43ae0ff4b628d258b7473d89238708",
    "shapes-ORTHOGONAL-None": "8c1d9256541af7a7500fde7fc44f14108b397efa787ad24efe76544856d49a2a",
    "shapes-FULL-2": "3aad04435537be25989f977290b5cfc80f4c80160bc26f54fc6417a0b2246e8e",
    "shapes-FULL-None": "2e112a71f8af6952a6a2cff404c955faced1f3418841209aa2f57ce47312c404",
}

#: The digests pinned before the strong rule rows, when every model
#: had the weak ones: ``RoutingIlp.milp_model`` builds those arrays.
WEAK_GOLDEN_ARRAYS = {
    "pool-7003-RULE1": "03ebcf6efb52fed860db0bcac7aaf6ccbb9ca91d6b81ea776e84b4de133def95",
    "pool-7003-RULE2": "1785b46a2d38cd9b8a7ad004efe47124e444007c153716d5cef45c19975df05c",
    "pool-7003-RULE3": "d3dfb76590d8217d49c2d31688a01522ed34242307fcac15565636dc55f3a59e",
    "pool-7003-RULE4": "a879ffffc3f3ca45694cfd979c2d28fe5a3212ce0f2f4ec156590805cf7bac1a",
    "pool-7003-RULE5": "03ebcf6efb52fed860db0bcac7aaf6ccbb9ca91d6b81ea776e84b4de133def95",
    "pool-7003-RULE6": "3fa1bf2339b39c6c67c2a104475d53d9407517e5c556529759e17d95c1491964",
    "pool-7003-RULE7": "f19135ed8e2882935b9902586526005be7d9c615dc67e61500e090ee59d93ccd",
    "pool-7003-RULE8": "a9f1189ff40d58c67637ae482b095ba97202f23197b57fdfd3f1211e604e25be",
    "pool-7003-RULE9": "c2b0ab483f517e32f99f8fa786b152ebb3705ddc4be7f4a434177df42dc3ae30",
    "pool-7003-RULE10": "9a7370a0d263a8d972bfbd2686d9222768a379695896290b86cff5b471957ad5",
    "pool-7003-RULE11": "c72982f27f6828e05be79cf77ee295993549319ea66f27dbc0c2e15ee053acf9",
    "pool-7030-RULE1": "b2e7c07c003d6b22fab6365dedd5faed748b07c2dd361fb6693d7f9d35e9d8b0",
    "pool-7030-RULE2": "b87634a992fa22737f2571aab0d26c2dc26ab1be36c4ccb92f0d9743488466ae",
    "pool-7030-RULE3": "9a2cc733fff0ed605940b49b789e28a9d5e98372f3859cc9dc78fb5dd0c15cee",
    "pool-7030-RULE4": "ba28597971872110c922d233eeaed98333cd43c254a2eb916a7622ab1b79afcb",
    "pool-7030-RULE5": "b2e7c07c003d6b22fab6365dedd5faed748b07c2dd361fb6693d7f9d35e9d8b0",
    "pool-7030-RULE6": "20ff346584d840d39525272892037546b34e6245840e8491f3536b98cebdb281",
    "pool-7030-RULE7": "f358e8a0cd46f001605a522ce8e795dde9ec0c313fd21c16c47b4bfcc6e82b46",
    "pool-7030-RULE8": "0b201409280b90cddc21eeea8cc14e9f55d61dd3503a7336ba02fd3949bcb08b",
    "pool-7030-RULE9": "1089556ac44179ebba0769d7d40d8b5c7cfa16bbaef941fb40f0fde050ced0a2",
    "pool-7030-RULE10": "797489a39cc3c53bdb2e6bb19f1825cece77aa1646c3d9f34b9c3416ff788224",
    "pool-7030-RULE11": "a99fdad2235a462bf382715d44116db14bb046131508ccbe2b5087733d8cc9b9",
    "multi-0-RULE1": "0f1174bcb33a216b4ee3e19c8ecd13727d43ac51a6e993705a7ef727006b566d",
    "multi-0-RULE3": "2d0cd6dfa0a1b9a315c4433bc34eebed3e4e6efef81607e7b7a705161bf285c8",
    "multi-0-RULE4": "99c12b0b2e8a8e6770251fc7cc1671a8c42a9c02a302532b708641b4c18d487f",
    "multi-0-RULE5": "0f1174bcb33a216b4ee3e19c8ecd13727d43ac51a6e993705a7ef727006b566d",
    "multi-0-RULE6": "45dd57deafa524d9d1383a0f84e1444e6af5eadd999968820536c284f02c8191",
    "multi-0-RULE8": "826fde3d02b654f0aabc9d5cd1d106a77c2dd3011cacb6864816080ff37e83ce",
    "multi-2-RULE1": "8626dc962533d35af4d97a01457c0941e8b0738a0955cfa72938c6489a396ac2",
    "multi-2-RULE3": "239c23fa5ffa7f20150dfab19aa6f6fe07bb17763d2ef0692e887bc4a1268e90",
    "multi-2-RULE4": "188ff1c8d29cbafab343fa19625bd07db1ff47871e5ffcea1827eeb3982adc62",
    "multi-2-RULE5": "8626dc962533d35af4d97a01457c0941e8b0738a0955cfa72938c6489a396ac2",
    "multi-2-RULE6": "6a55ecedba652233f3c794df0476490efd28fca5db2db7e5a004fe26d82f08ab",
    "multi-2-RULE8": "5f2551751ba68df7535de2e1195cd4522bbf290b7f5b180e682e20368a077be3",
    "shapes-NONE-2": "70c9372d805dc869921dc7832d7e1d30b05758bb835fac9296bfe60aade13fe1",
    "shapes-NONE-None": "85f5052cff9bff6e77eba8b5c37a6e1cd1feac21723c1ba2a8741d40c77217d2",
    "shapes-ORTHOGONAL-2": "eb36973b30db15adc304f4bea954e914c86f6560d6f9279e10d0273c30d85c6f",
    "shapes-ORTHOGONAL-None": "8c1d9256541af7a7500fde7fc44f14108b397efa787ad24efe76544856d49a2a",
    "shapes-FULL-2": "677475c78055f5f7965d957611f8187f17f2c41e10d9039ea7441d1179086aeb",
    "shapes-FULL-None": "07dc52ee42b0248a009b4094458fc11acb6a261a8b1129ae26bf86d3bfd4fa81",
}

#: (a) the sweep benchmark's pool shape (2-pin nets), (b) multi-pin
#: nets, (c) multi-pin nets with via shapes -- the case where a
#: shape covering two adjacent via sites merges two usages into one
#: coefficient of 2.0.
POOL_SPEC = SyntheticClipSpec(
    nx=6, ny=6, nz=3, n_nets=3, sinks_per_net=1, access_points_per_pin=3
)
MULTI_SPEC = SyntheticClipSpec(
    nx=5, ny=6, nz=3, n_nets=3, sinks_per_net=2, access_points_per_pin=2
)
SHAPES_SPEC = SyntheticClipSpec(
    nx=5, ny=5, nz=3, n_nets=2, sinks_per_net=2, access_points_per_pin=2
)


def array_digest(csr):
    h = hashlib.sha256()
    for arr in (
        csr.indptr, csr.indices, csr.data, csr.senses, csr.row_const,
        csr.lb, csr.ub, csr.integer, csr.obj,
    ):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(float(csr.obj_const).hex().encode())
    h.update(json.dumps([csr.var_names, csr.row_names]).encode())
    return h.hexdigest()


def golden_cases():
    for seed in (7003, 7030):
        for rule in rules_for_technology("N28-12T"):
            yield f"pool-{seed}-{rule.name}", POOL_SPEC, seed, rule
    for seed in (0, 2):
        for rule in rules_for_technology("N7-9T"):
            yield f"multi-{seed}-{rule.name}", MULTI_SPEC, seed, rule
    for restriction in ViaRestriction:
        for sadp_min_metal in (None, 2):
            rule = RuleConfig(
                name="SHAPES",
                via_restriction=restriction,
                sadp_min_metal=sadp_min_metal,
                allow_via_shapes=True,
            )
            yield (
                f"shapes-{restriction.name}-{sadp_min_metal}",
                SHAPES_SPEC, 0, rule,
            )


class TestGoldenArrays:
    def test_case_list_matches_the_pins(self):
        assert sorted(case for case, *_ in golden_cases()) == sorted(
            GOLDEN_ARRAYS
        )

    @pytest.mark.parametrize(
        "case, spec, seed, rule",
        list(golden_cases()),
        ids=[case for case, *_ in golden_cases()],
    )
    def test_arrays_are_pinned(self, case, spec, seed, rule):
        clip = make_synthetic_clip(spec, seed=seed)
        csr = build_routing_ilp(clip, rule, reuse=False).csr
        assert array_digest(csr) == GOLDEN_ARRAYS[case]

    @pytest.mark.parametrize(
        "case, spec, seed, rule",
        list(golden_cases()),
        ids=[case for case, *_ in golden_cases()],
    )
    def test_milp_model_is_the_weak_model(self, case, spec, seed, rule):
        # Branch-and-cut gets the model as it was before the strong
        # rows, byte for byte, over the strong model's columns.
        clip = make_synthetic_clip(spec, seed=seed)
        ilp = build_routing_ilp(clip, rule, reuse=False)
        weak = ilp.milp_model()
        assert array_digest(weak) == WEAK_GOLDEN_ARRAYS[case]
        for name in ("lb", "ub", "integer", "obj"):
            assert np.array_equal(getattr(weak, name), getattr(ilp.csr, name))
        assert weak.var_names == ilp.csr.var_names
        assert weak.obj_const == ilp.csr.obj_const


#: Golden cases with a MILP of 20 to 100 s on one of the two models
#: (multi-pin nets under SADP): their LP bounds are compared here,
#: their MILPs are not.
SLOW_MILPS = ("multi-0-RULE3", "multi-0-RULE8", "multi-2-RULE8")


class TestStrongRows:
    """The strong rule rows against the weak ones
    (``RoutingIlp.milp_model``): the same integer points, so the same
    status and optimum, under an LP bound that is never lower."""

    @pytest.mark.parametrize(
        "case, spec, seed, rule",
        list(golden_cases()),
        ids=[case for case, *_ in golden_cases()],
    )
    def test_same_optimum_and_no_looser_lp(self, case, spec, seed, rule):
        clip = make_synthetic_clip(spec, seed=seed)
        ilp = build_routing_ilp(clip, rule, reuse=False)
        strong, weak = ilp.csr, ilp.milp_model()
        strong_bound = solve_root(strong).bound
        weak_bound = solve_root(weak).bound
        assert strong_bound is not None and weak_bound is not None
        assert strong_bound >= weak_bound - 1e-9
        if case in SLOW_MILPS or array_digest(strong) == array_digest(weak):
            return  # too slow, or the very same model
        strong_solution = solve_with_highs(strong)
        weak_solution = solve_with_highs(weak)
        assert strong_solution.status is weak_solution.status
        assert strong_solution.objective == weak_solution.objective
        assert strong_bound <= strong_solution.objective

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1)])
    def test_one_site_wide_grid_keeps_pair_rows(self, nx, ny):
        # No 2x2 block exists: FULL writes the weak model's pair rows.
        clip = make_clip(
            [ClipNet("a", (pin((0, 0, 0)), pin((nx - 1, ny - 1, 0))))],
            nx=nx, ny=ny,
        )
        rule = RuleConfig(via_restriction=ViaRestriction.FULL)
        ilp = build_routing_ilp(clip, rule, reuse=False)
        core = BaseFormulation.build(clip).core
        assert ilp.csr.n_rows - core.n_rows == 2 * (max(nx, ny) - 1)
        assert array_digest(ilp.csr) == array_digest(ilp.milp_model())

    def test_orthogonal_pair_rows_are_dominated_by_full_blocks(self):
        clip = make_synthetic_clip(POOL_SPEC, seed=7034)
        rules = {r.name: r for r in rules_for_technology("N28-12T")}
        base = BaseFormulation.build(clip)
        n_core = base.core.n_rows
        pairs = _delta_rows(base.specialize(rules["RULE6"]).csr, n_core)
        blocks = _delta_rows(base.specialize(rules["RULE9"]).csr, n_core)
        assert pairs and len(blocks) < len(pairs)
        for row in pairs:
            assert any(row.dominated_by(block) for block in blocks), row
        proof = prove_restriction(clip, rules["RULE6"], rules["RULE9"])
        assert proof.holds
        assert proof.n_dominated == len(pairs)
