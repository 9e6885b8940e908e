"""The watchdog-sweep experiment: fused detection vs PNM-only.

Pins the sweep's claims on the deterministic CI preset: in every mole
cell the fused path convicts sooner on average than PNM alone, a lying
watchdog on an honest data plane frames nobody, and no cell confirms a
watchdog claim against an honest node.
"""

from repro.experiments import watchdog_sweep
from repro.experiments.cli import _SINGLE_RUNNERS
from repro.experiments.presets import CI


class TestWatchdogSweep:
    def test_registered_in_cli(self):
        assert _SINGLE_RUNNERS["watchdog-sweep"] is watchdog_sweep.run

    def test_ci_preset_claims(self):
        result = watchdog_sweep.run(CI)
        assert result.figure_id == "watchdog-sweep"
        rows = result.as_dicts()
        assert {row["scenario"] for row in rows} == set(watchdog_sweep.SCENARIOS)
        for row in rows:
            cell = (row["scenario"], row["n"], row["p"], row["mole_pos"])
            if row["scenario"] == "mole":
                assert row["fused_detect"] < row["pnm_detect"], cell
            if row["scenario"] == "framing":
                assert row["fused_false_rate"] == 0.0, cell
            assert row["wd_added_false"] == 0.0, cell
