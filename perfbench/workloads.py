"""The benchmark's three workloads and the checks on their records.

Every workload is built from the public plan builders with each argument
written out here, so a later change to a ``--quick`` preset, to the
builtin adversary list or to the runner shims cannot change what a
workload runs.  A workload is a list of *cells*: one farm work item
(``RunSpec``) each, executed one at a time in this process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.farm.spec import RunSpec
from repro.plan.builtin import advbench_plan, ctrlbft_plan, fig4_plan, fig5_plan
from repro.plan.plan import ExperimentPlan

#: the six Section V scenarios, in the paper's figure order
FIGURE_SCENARIOS = ("linespeed", "dup3", "dup5", "central3", "central5", "pox3")

#: the advbench adversary axis: every strategy row, sub-quorum and quorum
ADVBENCH_ADVERSARIES = (
    "sampled_p001",
    "sampled_p01",
    "sampled_p1",
    "probation_evader",
    "sweep_timed",
    "path_inconsistency",
    "colluding_minority",
    "colluding_quorum",
)

#: Figure 5's acceptance criterion: the found rate loses < 0.5 %
FIG5_LOSS_TARGET = 0.005


def udp_cbr(seed: int) -> List[ExperimentPlan]:
    """Figure 5 max-rate UDP search, every scenario, fresh testbed per probe."""
    return [fig5_plan(
        scenarios=FIGURE_SCENARIOS,
        duration=0.015,
        iterations=6,
        seed=seed,
        params=None,
    )]


def tcp_bulk(seed: int) -> List[ExperimentPlan]:
    """Figure 4 Reno bulk transfers, both directions, every scenario."""
    return [fig4_plan(
        scenarios=FIGURE_SCENARIOS,
        duration=0.02,
        repetitions=4,
        seed=seed,
        params=None,
    )]


def adversary(seed: int) -> List[ExperimentPlan]:
    """The advbench grid (64 cells) plus the ctrlbft grid (12 cells)."""
    return [
        advbench_plan(
            variants=("central3", "central5"),
            adversaries=ADVBENCH_ADVERSARIES,
            profiles=("balanced", "vigilant"),
            duration=0.02,
            rate_mbps=20.0,
            seeds=(seed, seed + 1),
            params=None,
        ),
        ctrlbft_plan(
            variants=("linespeed", "central3"),
            ctrl_ks=(1, 3),
            adversaries=("none", "crash", "lying"),
            duration=0.04,
            rate_mbps=10.0,
            seeds=(seed,),
            params=None,
        ),
    ]


def udp_cbr_warmup(seed: int) -> List[ExperimentPlan]:
    return [fig5_plan(
        scenarios=FIGURE_SCENARIOS, duration=0.002, iterations=1,
        seed=seed, params=None,
    )]


def tcp_bulk_warmup(seed: int) -> List[ExperimentPlan]:
    return [fig4_plan(
        scenarios=FIGURE_SCENARIOS, duration=0.005, repetitions=2,
        seed=seed, params=None,
    )]


def adversary_warmup(seed: int) -> List[ExperimentPlan]:
    return [
        advbench_plan(
            variants=("central3", "central5"),
            adversaries=("sampled_p1", "colluding_minority"),
            profiles=("balanced",), duration=0.01, rate_mbps=20.0,
            seeds=(seed,), params=None,
        ),
        ctrlbft_plan(
            variants=("central3",), ctrl_ks=(3,), adversaries=("lying",),
            duration=0.02, rate_mbps=10.0, seeds=(seed,), params=None,
        ),
    ]


# ----------------------------------------------------------------------
# record checks: the paper's invariants, for any seed
# ----------------------------------------------------------------------
def check_fig5(spec: RunSpec, record: Any) -> Optional[str]:
    if record["loss_rate"] > FIG5_LOSS_TARGET:
        return f"loss {record['loss_rate']:.4f} > 0.5% at the found rate"
    if record["mbps"] <= 0.0:
        return "no throughput at the found rate"
    return None


def check_fig4(spec: RunSpec, record: Any) -> Optional[str]:
    if not record > 0.0:
        return f"TCP throughput {record!r} is not positive"
    return None


def check_adv(spec: RunSpec, record: Any) -> Optional[str]:
    if record["adversary"] == "colluding_quorum":
        return None  # the negative control: a full quorum must win
    for field in ("masked_damage", "packets_leaked_before_quarantine",
                  "false_quarantines"):
        if record[field]:
            return f"sub-quorum row has {field}={record[field]}"
    return None


def check_ctrl(spec: RunSpec, record: Any) -> Optional[str]:
    if record["ctrl_k"] >= 3 and record["malicious_installed"]:
        return f"{record['malicious_installed']} malicious flow-mods at ctrl_k=3"
    return None


CHECKS: Dict[str, Callable[[RunSpec, Any], Optional[str]]] = {
    "fig5.udp_max": check_fig5,
    "fig4.tcp": check_fig4,
    "adv.run": check_adv,
    "ctrl.run": check_ctrl,
}


@dataclass(frozen=True)
class Workload:
    name: str
    plans: Callable[[int], List[ExperimentPlan]]
    warmup: Callable[[int], List[ExperimentPlan]]


WORKLOADS: Dict[str, Workload] = {
    "udp_cbr": Workload("udp_cbr", udp_cbr, udp_cbr_warmup),
    "tcp_bulk": Workload("tcp_bulk", tcp_bulk, tcp_bulk_warmup),
    "adversary": Workload("adversary", adversary, adversary_warmup),
}


def cells(plans: List[ExperimentPlan]) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for plan in plans:
        plan.validate()
        specs.extend(plan.expand())
    return specs
