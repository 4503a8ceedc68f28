"""Reusable experiment runners for every table and figure of the paper.

Each module exposes ``run(seed) -> <Result dataclass>`` plus a
``format_result`` helper; the benchmark harness asserts on the result
objects and the CLI (``python -m repro``) prints them.  Every other
setting of an experiment is a module constant at the value the paper
figure uses.  ``fig10.run`` alone also takes ``oversub_2to1``, which
tells Fig. 10a from Fig. 10b.
"""

from functools import partial

from repro.experiments import (
    ablations,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig3,
    fig7,
    fig9,
    table1,
    table3,
)

#: Registry used by the CLI: name -> (run, format_result, description).
EXPERIMENTS = {
    "table1": (table1.run, table1.format_result,
               "crash-cause distribution of a 4096-GPU job (Table I)"),
    "table3": (table3.run, table3.format_result,
               "error-induced downtime before/after C4D (Table III)"),
    "fig3": (fig3.run, fig3.format_result,
             "performance loss vs scale, GPT-22B 16-512 GPUs (Fig. 3)"),
    "fig7": (fig7.run, fig7.format_result,
             "delay-matrix communication-slow syndrome (Fig. 7)"),
    "fig9": (fig9.run, fig9.format_result,
             "bonded-port balance, single allreduce (Fig. 9)"),
    "fig10a": (fig10.run, fig10.format_result,
               "8 concurrent jobs, 1:1 oversubscription (Fig. 10a)"),
    "fig10b": (partial(fig10.run, oversub_2to1=True), fig10.format_result,
               "8 concurrent jobs, 2:1 oversubscription (Fig. 10b)"),
    "fig11": (fig11.run, fig11.format_result,
              "CNP counts per bonded port (Fig. 11)"),
    "fig12": (fig12.run, fig12.format_result,
              "link-failure tolerance, static vs dynamic (Fig. 12)"),
    "fig13": (fig13.run, fig13.format_result,
              "per-uplink bandwidth around the failure (Fig. 13)"),
    "fig14": (fig14.run, fig14.format_result,
              "real-life training jobs (Fig. 14)"),
    "ablations": (ablations.run, ablations.format_result,
                  "design-choice ablations (DESIGN.md §5)"),
}

__all__ = [
    "EXPERIMENTS", "ablations", "fig3", "fig7", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "table1", "table3",
]
