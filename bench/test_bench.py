"""Tests of the benchmark's own logic: span arithmetic, tracing through
re-bound names, output checks that must catch corrupted files, and seeded
input generation."""

import numpy as np
import pytest

import reference
import spans
import workloads
from fowtctl.cli import main
from fowtctl.fatigue import rainflow, turning_points
from spans import Span, self_times


def test_self_time_of_nested_spans():
    tree = [Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("a1", 2.0, 3.0, 1),
            Span("b", 5.0, 9.0, 0),
            Span("b1", 5.5, 6.0, 3)]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    assert sum(self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", 0.0, 10.0, None),
            Span("c1", 2.0, 6.0, 0),
            Span("c2", 4.0, 8.0, 0),
            Span("c3", 9.0, 12.0, 0)]  # clipped to the parent's end
    assert self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _prepared(wl, seed, tmp_path):
    wl.prepare(seed, tmp_path / "in")
    out = tmp_path / "out"
    assert main(wl.argv(out)) == 0
    return out


def test_tracer_covers_aliases_and_shares_sum_to_one(tmp_path):
    wl = workloads.Simulate(duration=120.0)
    wl.prepare(3, tmp_path / "in")
    tracer = spans.Tracer()
    patches = spans.instrument(tracer)
    try:
        import fowtctl.cli as cli
        assert cli.main(wl.argv(tmp_path / "out")) == 0
    finally:
        spans.restore(patches)
    import fowtctl.cli as cli
    import fowtctl.sim as sim
    assert not hasattr(cli.simulate, "__wrapped__")
    assert not hasattr(sim.build_inputs, "__wrapped__")

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    parent = {s.name: names[s.parent] for s in tracer.spans if s.parent is not None}
    assert parent["cli.cmd_simulate"] == "cli.main"
    assert parent["sim.simulate"] == "cli.cmd_simulate"    # re-bound in cli
    assert parent["sim.build_inputs"] == "sim.simulate"    # module global
    assert parent["sim.jonswap_wave"] == "sim.build_inputs"
    m = spans.layer_metrics(tracer)
    assert m["sim.steps"] == wl.units
    assert m["sim.simulate.calls"] == 1 and m["fatigue.rainflow.calls"] == 0
    shares = sum(v for k, v in m.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0)


def test_simulate_check_catches_nan(tmp_path):
    wl = workloads.Simulate(duration=120.0)
    out = _prepared(wl, 3, tmp_path)
    assert wl.check(out) == []
    path = out / "timeseries.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[-100].split(",")
    fields[3] = "nan"
    lines[-100] = ",".join(fields)
    path.write_text("".join(lines))
    assert wl.check(out)


def test_simulate_check_catches_a_perturbed_state(tmp_path):
    wl = workloads.Simulate(duration=120.0)
    out = _prepared(wl, 4, tmp_path)
    path = out / "timeseries.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[-50].split(",")
    fields[2] = repr(float(fields[2]) * 1.001)  # omega
    lines[-50] = ",".join(fields)
    path.write_text("".join(lines))
    assert any("omega" in p for p in wl.check(out))


def test_fatigue_check_catches_an_altered_range(tmp_path):
    wl = workloads.Fatigue(samples=20_000)
    out = _prepared(wl, 5, tmp_path)
    assert wl.check(out) == []
    path = out / "cycles.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[-10].split(",")
    fields[0] = repr(float(fields[0]) * 1.01)
    lines[-10] = ",".join(fields)
    path.write_text("".join(lines))
    assert wl.check(out)


@pytest.fixture(scope="module")
def campaign_run(tmp_path_factory):
    wl = workloads.Campaign(duration=110.0, dt=0.1)
    out = _prepared(wl, 6, tmp_path_factory.mktemp("campaign"))
    return wl, (out / "campaign.csv").read_bytes()


def test_campaign_check_catches_a_swapped_row(campaign_run, tmp_path):
    wl, data = campaign_run
    (tmp_path / "campaign.csv").write_bytes(data)
    assert wl.check(tmp_path) == []
    lines = data.decode().splitlines(keepends=True)
    lines[-1], lines[-5] = lines[-5], lines[-1]
    (tmp_path / "campaign.csv").write_text("".join(lines))
    assert wl.check(tmp_path)


def test_campaign_check_compares_other_jobs_bytes(campaign_run, tmp_path):
    wl, data = campaign_run
    (tmp_path / "campaign.csv").write_bytes(data)
    wl.other_jobs_csv = data + b"\n"
    try:
        assert any("--jobs" in p for p in wl.check(tmp_path))
    finally:
        wl.other_jobs_csv = None


def test_same_seed_same_inputs(tmp_path):
    def files(seed, where):
        for wl in (workloads.Simulate(), workloads.Campaign(),
                   workloads.Fatigue(samples=5_000)):
            wl.prepare(seed, tmp_path / where / wl.name)
        return {p.relative_to(tmp_path / where): p.read_bytes()
                for p in sorted((tmp_path / where).rglob("*")) if p.is_file()}

    first = files(7, "a")
    assert first == files(7, "b")
    other = files(8, "c")
    assert first.keys() == other.keys() and first != other


@pytest.mark.parametrize("seed", range(4))
def test_reference_rainflow_matches_the_program(seed):
    rng = np.random.default_rng(seed)
    # rounding makes plateaus and repeated samples
    x = np.round(np.cumsum(rng.standard_normal(3000)), 1)
    for hyst in (0.0, 0.5):
        assert np.array_equal(reference.turning_points(x, hyst),
                              turning_points(x, hysteresis=hyst))
    for frac in (0.0, 1e-2):
        r, m, c = reference.rainflow_cycles(x, frac)
        cycles = rainflow(x, hysteresis_frac=frac)
        assert np.array_equal(r, [cy.range for cy in cycles])
        assert np.array_equal(m, [cy.mean for cy in cycles])
        assert np.array_equal(c, [cy.count for cy in cycles])
