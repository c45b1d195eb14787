"""Tests of the benchmark itself: its reference computations agree with the
program on small instances, its inputs are what the workloads claim, and
its tally keeps refused operations.

    python3 -m pytest perfbench -q
"""

import pytest

import reference as ref
import run
import workloads
from quantile import harrell_davis, regularized_beta
from tracing import Tracer, layer_metrics

workloads.use_source_tree()

from authdesigns import analysis, balancing, catalog, fileio  # noqa: E402
from authdesigns import difference_families as dfs  # noqa: E402

SMALL = ("cdf-13-3-1", "fano-cdf", "netto-19")


@pytest.fixture(params=SMALL)
def small(request):
    family = catalog.load_payload(request.param)
    matrix = dfs.develop_matrix(family)
    return family, matrix, analysis.SecrecySystem(matrix)


def test_structure_checks_agree(small):
    family, matrix, _ = small
    assert ref.is_difference_family(family.v, family.lambda_, family.base_blocks)
    assert list(matrix.rows) == ref.developed_rows(family.v, family.base_blocks)
    assert ref.every_count_is(family.v, matrix.rows, matrix.b // family.v)
    assert ref.is_t_design(family.v, dfs.develop(family).blocks, 2, 1)


def test_deception_agrees(small):
    family, matrix, system = small
    for i in range(matrix.k):
        naive = ref.naive_deception(matrix.v, matrix.rows, i)
        assert naive == analysis.deception_probability(system, i)
        assert naive == ref.steiner_deception(matrix.v, matrix.k, i)


def test_oracle_values_agree(small):
    _, matrix, system = small
    v, k, b = matrix.v, matrix.k, matrix.b
    for i in (0, 1):
        assert analysis.voracle_offline_value(system, i) == ref.offline_value(v, k)
    for i in range(min(3, k)):
        value = analysis.voracle_online_value(system, i)
        assert value == ref.online_cover(v, matrix.rows, i)
        assert value == ref.steiner_online(v, k, b, i)
        assert ref.online_bound(v, k, i) == analysis.online_bound(v, k, i)


def test_digest_agrees(small):
    family, matrix, _ = small
    for doc in (dfs.df_to_json(family), balancing.matrix_to_json(matrix)):
        assert ref.canonical_digest(doc) == fileio.digest(doc)


@pytest.mark.parametrize("name", ["biplane-cdf-11-5-2", "complete-5-3"])
def test_naive_deception_beyond_steiner(name):
    payload = catalog.load_payload(name)
    matrix = (dfs.develop_matrix(payload) if name.startswith("biplane")
              else balancing.balance(payload[0]))
    system = analysis.SecrecySystem(matrix)
    for i in range(min(matrix.k, 4)):
        assert (ref.naive_deception(matrix.v, matrix.rows, i)
                == analysis.deception_probability(system, i))


def test_reference_checks_reject_broken_inputs():
    family = catalog.load_payload("cdf-13-3-1")
    rows = [list(row) for row in ref.developed_rows(13, family.base_blocks)]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    assert not ref.every_count_is(13, rows, 2)
    assert not ref.is_difference_family(13, 1, ((0, 1, 3), (0, 2, 7)))
    array = catalog.load_payload("van-rees-apa")
    assert ref.apa_valid(2, 3, 11, 1, array.rows)
    broken = list(array.rows)
    broken[0] = (broken[0][1], broken[0][0], broken[0][2])
    assert not ref.apa_valid(2, 3, 11, 1, broken)
    design = catalog.load_payload("complete-5-3")[0]
    assert ref.is_t_design(5, design.blocks, 3, 1)
    assert not ref.is_t_design(5, design.blocks[1:], 3, 1)


@pytest.mark.parametrize("seed", range(4))
def test_generic_inputs_lose_translation_invariance(seed):
    for item in workloads.generic_inputs(seed):
        v, blocks = item.design.v, item.design.blocks
        assert not ref.translation_invariant(v, blocks), item.name
        assert ref.is_t_design(v, blocks, 2, 1), item.name


def test_developed_designs_are_translation_invariant():
    for name in workloads.GENERIC:
        design = dfs.develop(catalog.load_payload(name))
        assert ref.translation_invariant(design.v, design.blocks), name


def test_inputs_follow_the_seed():
    def blocks(inputs):
        return [item.design.blocks for item in inputs]

    assert blocks(workloads.generic_inputs(5)) == blocks(workloads.generic_inputs(5))
    assert blocks(workloads.generic_inputs(5)) != blocks(workloads.generic_inputs(6))
    first, again = workloads.cyclic_inputs(5), workloads.cyclic_inputs(5)
    assert [i.matrix for i in first] == [i.matrix for i in again]


def test_refused_commands_are_attempted_and_failed(tmp_path, monkeypatch):
    pipeline = workloads.CliPipeline(0, tmp_path, None)
    pipeline.jobs = [job for job in pipeline.jobs
                     if job.name.endswith(" " + workloads.CLI_REFUSED)]
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    tally = run.Tally()
    run.measure(pipeline, 0, None, tally)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert len(tally.job_times) == 5


def test_other_refusals_fail_the_check(tmp_path):
    pipeline = workloads.CliPipeline(0, tmp_path, None)
    export, build = pipeline._family_pipeline("cdf-13-3-1")[:2]
    for job in (export, build):
        assert job.check(job.run()) is False
    starved = pipeline._job("starved attack", [
        "attack", "cdf-13-3-1-matrix.json", "--budget", "1"], lambda out: None)
    with pytest.raises(workloads.CheckFailed):
        starved.check(starved.run())


def test_traced_cli_records_layers(tmp_path):
    tracer = Tracer()
    pipeline = workloads.CliPipeline(0, tmp_path, tracer)
    tracer.pass_no = 0
    for job in pipeline._design_pipeline():
        tracer.job = job.name
        output = job.run()
        pipeline.after_job(output)
        assert job.check(output) is False
    names = {span["name"] for span in tracer.spans}
    assert {"cli.import", "cli.export", "cli.build", "cli.attack_classic",
            "balancing.edge_color", "analysis.deception.o2",
            "fileio.write"} <= names
    values = layer_metrics(tracer.spans, [0], ("cli.build_s", "analysis.deception_s"),
                           {"balancing.edges": "edges"})
    assert values["cli.build_s"] > 0 and values["analysis.deception_s"] > 0
    assert values["balancing.edges"] == 10 * 3


def test_regularized_beta_closed_forms():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert regularized_beta(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert regularized_beta(3.5, 1, x) == pytest.approx(x ** 3.5, abs=1e-12)
        assert regularized_beta(120.6, 13.4, x) == pytest.approx(
            1 - regularized_beta(13.4, 120.6, 1 - x), abs=1e-12)


def test_harrell_davis_quantiles():
    assert harrell_davis([0.25] * 50, 0.9) == pytest.approx(0.25)
    uniform = [i / 1000 for i in range(1001)]
    assert harrell_davis(uniform, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert harrell_davis(uniform, 0.9) == pytest.approx(0.9, abs=2e-3)
    # two instances, the slower one a ninth of the jobs: the estimate stays
    # between them instead of jumping to either
    mix = [1.0] * 120 + [2.0] * 15
    assert 1.0 < harrell_davis(mix, 0.9) < 2.0
