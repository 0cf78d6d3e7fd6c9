"""The four workloads and the sizes of one run.

A workload is a ``WorkloadConfig`` (what the chain holds and what traffic it
sees), a block size and an offered rate for the paced phase.  The offered
rate is part of the workload's definition: about half the reference host's
quiet capacity, so that the paced phase measures service time and not a
queue.  The one-line reasons live in ``BENCHMARK.json``; the long ones in
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from repro.workload.generator import WorkloadConfig
from repro.workload.scenarios import scenario_config


@dataclass(frozen=True)
class Sizes:
    """How much one run does.  All of it is fixed by these numbers and the
    seed, never by the clock."""

    blocks: int        # L: blocks per lap (and slots per paced lap)
    lap_pairs: int     # K: saturated (dmvcc, serial) lap pairs
    paced_laps: int    # P: paced dmvcc laps
    probe_blocks: int  # traced run: blocks the layer probes replay


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    txs_per_block: int
    slot_period_s: float          # paced phase: one block's worth per slot
    make_config: Callable[[int, bool], WorkloadConfig]
    sizes: Sizes                  # of an untraced run at DECLARED_SECONDS

    @property
    def offered_tx_per_s(self) -> float:
        return self.txs_per_block / self.slot_period_s


def _scenario(name: str) -> Callable[[int, bool], WorkloadConfig]:
    def make(seed: int, smoke: bool) -> WorkloadConfig:
        return scenario_config(name, users=60 if smoke else 400, seed=seed)
    return make


def _transfers(seed: int, smoke: bool) -> WorkloadConfig:
    return WorkloadConfig(
        contract_fraction=0.0, users=600 if smoke else 6000,
        erc20_tokens=2, dex_pools=1, nft_collections=1, icos=1, seed=seed,
    )


# The issue asked for L = 50, K = 6, P = 3 and two set-ups in 60-90 s per run.
# The driver's cap (92 runs in 3420 s, slow spells of the host included)
# leaves 20-30 s per run, hence these and a single set-up.  abort_storm
# trades a lap pair for twice the blocks: its block costs differ so much
# (45-190 ms within one lap) that what spreads its numbers from seed to seed
# is how few distinct blocks a run holds, not the host; the other three are
# steadier with more laps of fewer blocks.  transfer_state, memory-bound and
# the one the host's slow spells hit hardest, has laps of 0.7 s, so it can
# afford eight pairs, which spread its laps over a window longer than most
# spells.
DECLARED_SECONDS = 20
_USUAL = Sizes(blocks=20, lap_pairs=4, paced_laps=2, probe_blocks=6)
_STORM = Sizes(blocks=40, lap_pairs=3, paced_laps=2, probe_blocks=6)
_STATE = Sizes(blocks=20, lap_pairs=8, paced_laps=3, probe_blocks=6)
SMOKE = Sizes(blocks=6, lap_pairs=1, paced_laps=1, probe_blocks=2)

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec("stream_mix", 32, 0.16, _scenario("mix"), _USUAL),
        WorkloadSpec("transfer_state", 64, 0.085, _transfers, _STATE),
        WorkloadSpec("defi_compute", 16, 0.128, _scenario("defi_composition"), _USUAL),
        WorkloadSpec("abort_storm", 32, 0.18, _scenario("abort_storm"), _STORM),
    )
}


def sizes_for(spec: WorkloadSpec, seconds: int, traced: bool, smoke: bool) -> Sizes:
    """``--seconds`` scales the number of laps, not the work of a lap: a lap
    is the unit the estimator compares block for block.  The traced run does
    half the lap pairs (the first untraced, for the overhead; two at least)
    and one paced lap."""
    if smoke:
        return replace(SMOKE, lap_pairs=2) if traced else SMOKE
    if traced:
        return replace(spec.sizes, lap_pairs=max(2, spec.sizes.lap_pairs // 2), paced_laps=1)
    scale = seconds / DECLARED_SECONDS
    return replace(
        spec.sizes,
        lap_pairs=max(2, round(spec.sizes.lap_pairs * scale)),
        paced_laps=max(1, round(spec.sizes.paced_laps * scale)),
    )
