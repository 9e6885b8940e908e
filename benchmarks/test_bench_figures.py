"""One benchmark per evaluation figure (Figures 4-7).

Each run regenerates the figure's rows and asserts the paper's reported
shape, so ``pytest benchmarks/`` both times the harness
and re-checks the reproduction.
"""

from repro.experiments import fig4, fig5, fig6, fig7


class TestFig4:
    def test_bench_fig4_analytical(self, benchmark, preset):
        result = benchmark(fig4.run, preset)
        rows = {r[0]: r for r in result.rows}
        # 90% collection thresholds: ~13 / ~33 / ~54 packets.
        assert rows[13][1] >= 0.9 > rows[12][1]
        assert rows[33][2] >= 0.9 > rows[32][2]
        assert rows[54][3] >= 0.9 > rows[53][3]


class TestFig5:
    def test_bench_fig5_collection_curves(self, benchmark, preset):
        result = benchmark(fig5.run, preset)
        row7 = next(r for r in result.rows if r[0] == 7)
        # ~9 of 10 nodes collected within 7 packets at n=10.
        assert 82.0 <= row7[1] <= 97.0
        # Longer paths collect more slowly at equal packet counts.
        row14 = next(r for r in result.rows if r[0] == 14)
        assert row14[1] > row14[2] > row14[3]


class TestFig6:
    def test_bench_fig6_failure_counts(self, benchmark, preset):
        result = benchmark(fig6.run, preset)
        rows = {r[0]: r for r in result.rows}
        assert rows[20][1] <= 5.0  # 200 packets suffice at 20 hops
        assert rows[30][2] <= 5.0  # 400 packets suffice at 30 hops
        assert rows[50][1] > rows[20][1]  # failures grow with path length


class TestFig7:
    def test_bench_fig7_identification_times(self, benchmark, preset):
        result = benchmark(fig7.run, preset)
        rows = {r[0]: r for r in result.rows}
        assert 35 <= rows[20][1] <= 85  # "about 50" packets at 20 hops
        assert 170 <= rows[40][1] <= 280  # ~220 at 40 hops
        averages = [r[1] for r in result.rows]
        assert averages[0] < averages[-1]
