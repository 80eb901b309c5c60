"""The benchmark's workloads: the ``AnalysisConfig`` each one hands to the CLI.

Every workload runs the way ``cayleyball analyze --format json`` does, one
analysis per fresh process.  The seed reaches the program only through
``SamplingPlan.random`` (``--samples``), so the exhaustive workloads are the
same input for every seed.  The reasons for each choice are the ``why``
lines of ``BENCHMARK.json``; ``predictions.json`` says which layer each one
is hot or cold for.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    group: str
    radii: tuple[int, ...]
    invariants: tuple[str, ...] | None = None  # None: the CLI's default set
    samples: int | None = None  # None: exhaustive

    @property
    def sampled(self) -> bool:
        return self.samples is not None

    @property
    def free_group(self) -> bool:
        """Free groups are trees: every invariant must measure 0 on them."""
        return self.group.replace(" ", "").startswith("F(")

    def config_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``cli.AnalysisConfig``."""
        kwargs = {"group": self.group, "radii": list(self.radii)}
        if self.invariants is not None:
            kwargs["invariants"] = list(self.invariants)
        if self.samples is not None:
            kwargs["samples"] = self.samples
            kwargs["seed"] = seed
        return kwargs


# vfree-sweep and grid-sweep stop one radius short of the paper-scale sweeps
# (4..7 and 2..5): those take 22 s and 27 s for a single analysis, which
# leaves no room for repeated analyses within one measured run.  The layer
# shares survive the cut (mesh is still about half of vfree-sweep and
# bigons about 70% of grid-sweep, capped at R4).
WORKLOADS = {
    "free-r3": Workload(group="F(a,b)", radii=(3,)),
    "vfree-sweep": Workload(group="Z2 * Z3", radii=(4, 5, 6)),
    "grid-sweep": Workload(
        group="Z x Z",
        radii=(2, 3, 4),
        invariants=("four_point", "chain", "polygon:3", "bigons", "detour"),
    ),
    "vfree-sampled": Workload(
        group="Z2 * Z3",
        radii=(9,),
        invariants=("four_point", "polygon:3", "bigons", "detour", "mesh:geodesic"),
        samples=5000,
    ),
}
