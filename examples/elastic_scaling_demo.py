#!/usr/bin/env python3
"""Walk through the cost of elastic batch-size scaling (Figs. 11, 12, 16).

The demo:

1. breaks one elastic re-configuration — a ResNet-50 job growing from two
   to four workers — into the four phases the simulator charges (step
   drain, communicator re-init, buffer resize, parameter broadcast),
2. compares the elastic re-configuration overhead against checkpoint-based
   migration for every model in the Fig. 16 study.

Run with::

    python examples/elastic_scaling_demo.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.jobs.model_zoo import get_model
from repro.scaling.overhead import OverheadModel


def demo_add_workers(overheads: OverheadModel) -> None:
    print("=== 1. Elastic re-configuration: ResNet-50 grows to 4 workers ===")
    model = get_model("resnet50")
    breakdown = overheads.elastic_breakdown(model, num_workers=4, workers_added=True)
    phases = {
        "step drain": breakdown.step_drain,
        "communicator re-init": breakdown.communicator_reinit,
        "buffer resize": breakdown.buffer_resize,
        "parameter broadcast": breakdown.parameter_broadcast,
    }
    rows = [{"phase": name, "seconds": f"{value:.4f}"} for name, value in phases.items()]
    print(format_table(rows))
    print(f"Training paused for {breakdown.total:.2f} s "
          f"(checkpoint-based migration: {overheads.checkpoint_overhead(model):.2f} s)")


def demo_overheads(overheads: OverheadModel) -> None:
    print()
    print("=== 2. Elastic vs checkpoint-based overhead per model (Fig. 16) ===")
    names = ["alexnet", "resnet18", "resnet50", "vgg16", "googlenet", "inceptionv3", "lstm"]
    rows = []
    for name in names:
        model = get_model(name)
        elastic = overheads.elastic_overhead(model)
        checkpoint = overheads.checkpoint_overhead(model)
        rows.append(
            {
                "model": name,
                "elastic (s)": round(elastic, 2),
                "checkpoint (s)": round(checkpoint, 2),
                "speedup": round(checkpoint / elastic, 1),
            }
        )
    print(format_table(rows))


def main() -> None:
    overheads = OverheadModel()
    demo_add_workers(overheads)
    demo_overheads(overheads)


if __name__ == "__main__":
    main()
