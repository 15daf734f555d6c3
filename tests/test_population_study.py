"""Population studies: chunked generation, streamed stats, sharded parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.population import (
    PopulationStudyResult,
    population_archetypes,
    population_bill_study,
    population_context,
)
from repro.contracts import DemandCharge
from repro.exceptions import AnalysisError, SurveyError
from repro.survey.population import (
    assemble_population,
    population_chunks,
    synthetic_load_matrix,
)


class TestChunkedGeneration:
    def test_chunks_tile_the_monolith(self):
        pop = assemble_population(10, 24, 3600.0, chunk=4, seed=2)
        row = 0
        for chunk in population_chunks(10, 24, 3600.0, chunk=4, seed=2):
            assert chunk.start == row
            piece = pop.loads_kw[row : row + chunk.n_sites]
            assert np.array_equal(chunk.population.loads_kw, piece)
            row += chunk.n_sites
        assert row == 10

    def test_chunk_regenerable_in_isolation(self):
        # A worker that leases only the chunk at start=6 must regenerate it
        # bit-identically without generating the first six sites.
        full = assemble_population(9, 24, 3600.0, chunk=3, seed=5)
        loads, _ = synthetic_load_matrix(3, 24, 3600.0, seed=5, start_index=6)
        assert np.array_equal(full.loads_kw[6:9], loads)

    def test_loads_respect_idle_floor_and_peak(self):
        loads, peaks = synthetic_load_matrix(5, 48, 3600.0, seed=1)
        assert (loads >= 0.35 * peaks[:, None] - 1e-9).all()
        assert (loads <= peaks[:, None] + 1e-9).all()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SurveyError):
            synthetic_load_matrix(0, 24, 3600.0)
        with pytest.raises(SurveyError):
            synthetic_load_matrix(2, 24, -1.0)
        with pytest.raises(SurveyError):
            list(population_chunks(4, 24, 3600.0, chunk=0))


class TestArchetypeAdaptation:
    def test_five_archetypes(self):
        assert len(population_archetypes()) == 5

    def test_demand_metering_lifted_to_telemetry_grid(self):
        for contract in population_archetypes(3600.0):
            for comp in contract.components:
                if isinstance(comp, DemandCharge):
                    assert comp.metering_interval_s >= 3600.0

    def test_fine_telemetry_keeps_library_metering(self):
        # 900 s telemetry can serve the library's native 900 s meters.
        for contract in population_archetypes(900.0):
            for comp in contract.components:
                if isinstance(comp, DemandCharge):
                    assert comp.metering_interval_s == 900.0

    def test_adaptation_preserves_other_parameters(self):
        original = population_archetypes(900.0)
        adapted = population_archetypes(3600.0)
        for a, b in zip(original, adapted):
            for ca, cb in zip(a.components, b.components):
                if isinstance(ca, DemandCharge):
                    assert cb.rate_per_kw == ca.rate_per_kw
                    assert cb.ratchet_fraction == ca.ratchet_fraction
                    assert cb.metering is ca.metering

    def test_invalid_interval_rejected(self):
        with pytest.raises(AnalysisError):
            population_archetypes(0.0)


class TestPopulationContext:
    def test_prices_on_the_population_grid(self):
        ctx = population_context(72, 3600.0, seed=3)
        assert len(ctx.price_series) == 72
        assert ctx.price_series.interval_s == 3600.0
        assert (ctx.price_series.values_kw >= 0.02).all()

    def test_calls_fit_the_horizon(self):
        for n in (4, 24, 8760):
            ctx = population_context(n, 3600.0)
            for call in ctx.emergency_calls:
                assert 0.0 <= call.start_s < call.end_s <= n * 3600.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(AnalysisError):
            population_context(0, 3600.0)


class TestStudy:
    def test_serial_study_statistics_are_coherent(self):
        result = population_bill_study(n_sites=12, n_intervals=48, chunk=5, seed=4)
        assert isinstance(result, PopulationStudyResult)
        assert len(result.archetypes) == 5
        for stats in result.archetypes.values():
            assert stats["n_sites"] == 12.0
            assert stats["min_total"] <= stats["p50"] <= stats["p95"]
            assert stats["p95"] <= stats["p99"] <= stats["max_total"]
            assert stats["min_total"] <= stats["mean_total"] <= stats["max_total"]
            assert stats["population_total"] == pytest.approx(
                stats["mean_total"] * 12.0, rel=1e-12
            )

    def test_chunk_size_does_not_change_statistics_given_fixed_seeding(self):
        # Chunk seeds depend on chunk starts, so identical chunking must be
        # bit-stable run to run.
        a = population_bill_study(n_sites=8, n_intervals=24, chunk=3, seed=7)
        b = population_bill_study(n_sites=8, n_intervals=24, chunk=3, seed=7)
        assert a == b

    def test_sharded_study_is_bit_identical_to_serial(self, tmp_path):
        serial = population_bill_study(n_sites=10, n_intervals=24, chunk=3, seed=1)
        sharded = population_bill_study(
            n_sites=10,
            n_intervals=24,
            chunk=3,
            seed=1,
            sweep_dir=tmp_path / "sweep",
            n_shards=4,
            n_workers=2,
        )
        assert sharded == serial

    def test_sharded_study_resumes_from_journals(self, tmp_path):
        # Running twice against the same sweep directory must not recompute
        # (journaled results are reused) and must return the same result.
        first = population_bill_study(
            n_sites=6, n_intervals=24, chunk=2, seed=2,
            sweep_dir=tmp_path / "s", n_shards=2,
        )
        second = population_bill_study(
            n_sites=6, n_intervals=24, chunk=2, seed=2,
            sweep_dir=tmp_path / "s", n_shards=2,
        )
        assert first == second

    def test_invalid_study_rejected(self):
        with pytest.raises(AnalysisError):
            population_bill_study(n_sites=0)
        with pytest.raises(AnalysisError):
            population_bill_study(n_sites=4, chunk=0)

    def test_summary_is_flat_floats(self):
        result = population_bill_study(n_sites=4, n_intervals=24, chunk=2)
        summary = result.summary()
        assert summary["n_archetypes"] == 5.0
        assert all(isinstance(v, float) for v in summary.values())


class TestStreamingMemory:
    """A study holds O(chunk) sites in memory, whatever ``n_sites`` is.

    Four times the sites, in four times the chunks, must not raise the
    traced allocation peak: every chunk is generated, settled and folded
    into the mergeable statistics before the next one is drawn.
    """

    @staticmethod
    def _traced_peak_bytes(n_sites: int) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            population_bill_study(n_sites=n_sites, n_intervals=24 * 28, chunk=32)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_flat_in_the_number_of_sites(self):
        # warm the calendar, plan and import-time allocations first, so
        # both traced runs measure only what a study itself holds
        population_bill_study(n_sites=32, n_intervals=24 * 28, chunk=32)
        small = self._traced_peak_bytes(32 * 4)
        large = self._traced_peak_bytes(32 * 16)
        assert large <= 1.25 * small, (small, large)
