"""Command-line entry point for the experiment orchestrator.

Examples
--------
Run the Table-II sweep on 8 worker processes, memoizing cells in ``runs/``::

    python -m repro.experiments run --table 2 --workers 8 --store runs/

Re-running the same command after a kill resumes from the store (completed
cells are reported as ``reused`` and never recomputed).  Figures and
ablations work the same way::

    python -m repro.experiments run --figure 3 --smoke --workers 2
    python -m repro.experiments run --ablation negative_sampling --store runs/

``list`` prints the available sweeps and datasets.  Saved models are
inspected and queried without retraining (or loading their payload)::

    python -m repro.experiments inspect model.npz
    python -m repro.experiments query model.servable --nodes 3,17 --k 5
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from ..exceptions import ConfigurationError
from ..graph import available_datasets
from ..models import available_methods, get_method
from .ablations import (
    ablation_gradient_normalization,
    ablation_iterate_averaging,
    ablation_negative_sampling,
)
from .configs import ExperimentSettings
from .figures import figure_link_prediction, figure_structural_equivalence
from .tables import (
    table_batch_size,
    table_clipping,
    table_learning_rate,
    table_negative_samples,
    table_perturbation,
)

#: table number -> (sweep function, name of its sweep-values kwarg, smoke values)
_TABLES: dict[int, tuple[Callable, str, tuple]] = {
    2: (table_batch_size, "batch_sizes", (32, 64)),
    3: (table_learning_rate, "learning_rates", (0.05, 0.1)),
    4: (table_clipping, "thresholds", (1.0, 2.0)),
    5: (table_negative_samples, "negative_samples", (3, 5)),
    6: (table_perturbation, "epsilons", (3.5,)),
}

_FIGURES: dict[int, Callable] = {
    3: figure_structural_equivalence,
    4: figure_link_prediction,
}

_ABLATIONS: dict[str, Callable] = {
    "iterate_averaging": ablation_iterate_averaging,
    "gradient_normalization": ablation_gradient_normalization,
    "negative_sampling": ablation_negative_sampling,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Parallel, resumable reproduction of the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one table/figure/ablation sweep")
    what = run.add_mutually_exclusive_group(required=True)
    what.add_argument("--table", type=int, choices=sorted(_TABLES), help="paper table number")
    what.add_argument("--figure", type=int, choices=sorted(_FIGURES), help="paper figure number")
    what.add_argument("--ablation", choices=sorted(_ABLATIONS), help="ablation name")
    run.add_argument("--workers", type=int, default=1, help="worker processes (1 = serial)")
    run.add_argument("--store", default=None, metavar="DIR", help="run store directory (resumable)")
    scale = run.add_mutually_exclusive_group()
    scale.add_argument(
        "--smoke", action="store_true", help="tiny smoke-test grid (seconds, not minutes)"
    )
    scale.add_argument(
        "--paper", action="store_true", help="full paper-scale grid (hours of compute)"
    )
    run.add_argument("--datasets", default=None, help="comma-separated dataset names")
    run.add_argument(
        "--methods",
        default=None,
        help="comma-separated method names for --figure sweeps "
        "(see `list` for the registry)",
    )
    run.add_argument("--repeats", type=int, default=None, help="repetitions per cell")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--epochs", type=int, default=None, help="training epochs per run")
    run.add_argument(
        "--values",
        default=None,
        help="comma-separated sweep values for the chosen table (numbers)",
    )
    sub.add_parser("list", help="print available sweeps and datasets")

    inspect = sub.add_parser(
        "inspect",
        help="describe a saved model artifact or servable without loading its payload",
    )
    inspect.add_argument("path", help="a saved .npz artifact or a servable directory")

    query = sub.add_parser(
        "query", help="top-k nearest neighbours from a saved model, zero-copy"
    )
    query.add_argument("path", help="a saved .npz artifact or a servable directory")
    query.add_argument("--nodes", required=True, help="comma-separated query node ids")
    query.add_argument("--k", type=int, default=10, help="neighbours per node")
    query.add_argument(
        "--metric", choices=("cosine", "dot"), default="cosine", help="similarity"
    )

    delta = sub.add_parser(
        "delta",
        help="apply an edge delta to an edge-list graph (and plan invalidation)",
    )
    delta.add_argument("graph", help="edge-list file of the base graph")
    delta.add_argument("--num-nodes", type=int, default=None, help="base graph node count")
    delta.add_argument(
        "--insert", default=None, help="comma-separated edge pairs to insert, e.g. 3-17,4-9"
    )
    delta.add_argument(
        "--delete", default=None, help="comma-separated edge pairs to delete, e.g. 0-5"
    )
    delta.add_argument(
        "--grow-to", type=int, default=None, help="node count of the resulting graph"
    )
    delta.add_argument("--out", default=None, metavar="FILE", help="write the updated edge list")
    delta.add_argument(
        "--plan",
        default=None,
        metavar="MEASURE",
        help="print the invalidation plan for a registered proximity measure",
    )
    delta.add_argument(
        "--ledger", default=None, metavar="FILE", help="record the lineage step in a privacy ledger"
    )

    ledger = sub.add_parser(
        "ledger", help="verify a privacy ledger and print its cumulative (ε, δ)"
    )
    ledger.add_argument("path", help="the ledger JSON file")
    ledger.add_argument(
        "--delta", type=float, default=None, help="target δ for the cumulative ε"
    )
    ledger.add_argument(
        "--entries", action="store_true", help="also list every chained entry"
    )
    return parser


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    if args.smoke:
        settings = ExperimentSettings.smoke_test()
    elif args.paper:
        settings = ExperimentSettings.paper_scale()
    else:
        settings = ExperimentSettings()
    if args.datasets:
        settings = settings.with_updates(
            datasets=tuple(name.strip() for name in args.datasets.split(",") if name.strip())
        )
    if args.repeats is not None:
        settings = settings.with_updates(repeats=args.repeats)
    if args.seed is not None:
        settings = settings.with_updates(seed=args.seed)
    if args.epochs is not None:
        settings = settings.with_updates(
            training=settings.training.with_updates(epochs=args.epochs)
        )
    return settings


def _parse_methods(raw: str, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    """Resolve comma-separated method names through the registry.

    Unknown names exit with the registry's full listing and a
    did-you-mean hint instead of a bare traceback.
    """
    methods = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            methods.append(get_method(token).name)
        except ConfigurationError as exc:
            parser.error(str(exc))
    if not methods:
        parser.error(f"--methods needs at least one of: {', '.join(available_methods())}")
    return tuple(methods)


def _parse_values(raw: str) -> tuple:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        number = float(token)
        values.append(int(number) if number.is_integer() else number)
    return tuple(values)


def _run(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    kwargs: dict = {"settings": settings, "workers": args.workers, "store": args.store}
    if args.table is not None:
        sweep, values_kwarg, smoke_values = _TABLES[args.table]
        if args.values:
            kwargs[values_kwarg] = _parse_values(args.values)
        elif args.smoke:
            kwargs[values_kwarg] = smoke_values
        label = f"table {args.table}"
    elif args.figure is not None:
        sweep = _FIGURES[args.figure]
        if getattr(args, "methods_resolved", None):
            kwargs["methods"] = args.methods_resolved
        label = f"figure {args.figure}"
    else:
        sweep = _ABLATIONS[args.ablation]
        label = f"ablation {args.ablation}"

    print(f"running {label}: datasets={','.join(settings.datasets)} "
          f"repeats={settings.repeats} workers={args.workers} "
          f"store={args.store or '(none)'}", flush=True)
    table = sweep(**kwargs)
    print(table.to_text())
    if table.run_report is not None:
        print(table.run_report.summary())
    return 0


def _is_servable(path: str) -> bool:
    from pathlib import Path

    return (Path(path) / "servable.json").is_file()


def _inspect(args: argparse.Namespace) -> int:
    """Describe a saved model in O(metadata) — payloads are never loaded."""
    if _is_servable(args.path):
        from ..serving import ServableModel

        with ServableModel.open(args.path, check_registry=False) as servable:
            metadata = dict(servable.metadata)
            arrays = servable.document.get("arrays", {})
            kind = "servable"
            payload = servable.payload_nbytes
    else:
        from ..models import peek_artifact

        metadata = peek_artifact(args.path)
        arrays = metadata.pop("arrays", {})
        kind = "artifact"
        payload = None
    print(f"{kind}: {args.path}")
    print(f"method:   {metadata.get('method')}")
    result = metadata.get("result") or {}
    if result.get("losses"):
        print(f"final loss: {result['losses'][-1]:.6f}")
    if result.get("privacy_spent"):
        print(f"privacy spent: {result['privacy_spent']}")
    for field in ("dataset_fingerprint", "proximity_fingerprint", "repro_version"):
        if metadata.get(field):
            print(f"{field}: {metadata[field]}")
    for name, info in arrays.items():
        shape = "x".join(str(dim) for dim in info.get("shape", []))
        print(f"array {name}: {shape} {info.get('dtype')}")
    if payload is not None:
        print(f"payload: {payload} bytes (memory-mapped on open)")
    return 0


def _query(args: argparse.Namespace) -> int:
    """Answer batched top-k from a servable (zero-copy) or an artifact."""
    nodes = [int(token) for token in args.nodes.split(",") if token.strip()]
    if not nodes:
        raise ConfigurationError("--nodes needs at least one node id")
    if _is_servable(args.path):
        from ..serving import ServableModel

        with ServableModel.open(args.path) as servable:
            engine = servable.query_engine()
            result = engine.top_k(nodes, args.k, metric=args.metric)
    else:
        from ..models import Embedder

        engine = Embedder.load(args.path).as_servable()
        result = engine.top_k(nodes, args.k, metric=args.metric)
    for row, node in enumerate(nodes):
        pairs = ", ".join(
            f"{int(node_id)}:{float(score):.4f}"
            for node_id, score in zip(result.ids[row], result.scores[row], strict=True)
        )
        print(f"node {node}: {pairs}")
    return 0


def _parse_edge_pairs(raw: str | None, label: str) -> list[tuple[int, int]]:
    """Parse ``u-v,u-v`` (or ``u:v``) pair syntax into edge tuples."""
    if not raw:
        return []
    pairs: list[tuple[int, int]] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        separator = "-" if "-" in token else ":"
        parts = token.split(separator)
        if len(parts) != 2:
            raise ConfigurationError(
                f"--{label} expects comma-separated u-v pairs, got {token!r}"
            )
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _delta(args: argparse.Namespace) -> int:
    """Apply an edge delta to an edge-list graph; optionally plan/record it."""
    from ..graph.io import read_edge_list, write_edge_list
    from ..streaming import DeltaPlanner, EdgeDelta, apply_delta

    graph = read_edge_list(args.graph, num_nodes=args.num_nodes)
    delta = EdgeDelta(
        inserts=_parse_edge_pairs(args.insert, "insert"),
        deletes=_parse_edge_pairs(args.delete, "delete"),
        num_nodes=args.grow_to,
    )
    new_graph = apply_delta(graph, delta)
    print(f"base:  {graph.name} nodes={graph.num_nodes} edges={graph.num_edges} "
          f"fingerprint={graph.content_fingerprint()}")
    print(f"delta: +{delta.num_inserts} -{delta.num_deletes} "
          f"fingerprint={delta.fingerprint()}")
    print(f"new:   nodes={new_graph.num_nodes} edges={new_graph.num_edges} "
          f"fingerprint={new_graph.content_fingerprint()}")
    if args.plan:
        from ..proximity import get_proximity

        measure = get_proximity(args.plan)
        plan = DeltaPlanner().plan(graph, delta, measure, new_graph=new_graph)
        print(f"plan[{measure.name}]: scope={plan.scope} "
              f"recompute={plan.num_affected}/{plan.num_rows} rows "
              f"(reuse {plan.reuse_fraction:.1%}) — {plan.reason}")
    if args.ledger:
        from ..privacy import PrivacyLedger

        ledger = PrivacyLedger(args.ledger)
        entry = ledger.record_delta(graph, new_graph, delta)
        print(f"ledger: recorded lineage step {entry['entry_hash']} in {args.ledger}")
    if args.out:
        write_edge_list(new_graph, args.out)
        print(f"wrote {args.out}")
    return 0


def _ledger(args: argparse.Namespace) -> int:
    """Verify a ledger's hash chain and print its cumulative budget."""
    from ..privacy import PrivacyLedger

    ledger = PrivacyLedger(args.path)  # load verifies the chain
    summary = ledger.summary(args.delta)
    print(f"ledger: {summary['path']}")
    print(f"entries: {summary['entries']} ({summary['fits']} fits, "
          f"{summary['deltas']} deltas), chain verified")
    print(f"lineage head: {summary['dataset_fingerprint']}")
    print(f"total steps: {summary['total_steps']}")
    if summary["total_steps"]:
        print(f"cumulative: ε={summary['epsilon']:.4f} δ={summary['delta']:.1e} "
              f"(best α={summary['best_alpha']:g})")
    else:
        print("cumulative: no private fits recorded")
    if args.entries:
        for position, entry in enumerate(ledger.entries):
            if entry["kind"] == "fit":
                print(f"  [{position}] fit {entry['method']} steps={entry['steps']} "
                      f"ε={entry['epsilon']:.4f} σ={entry['noise_multiplier']} "
                      f"γ={entry['sampling_rate']:.4g}")
            else:
                print(f"  [{position}] delta {entry['parent_dataset_fingerprint'][:12]} "
                      f"-> {entry['dataset_fingerprint'][:12]} "
                      f"(+{entry.get('num_inserts', '?')} -{entry.get('num_deletes', '?')})")
    return 0


def _list() -> int:
    print("tables:    " + ", ".join(str(n) for n in sorted(_TABLES)))
    print("figures:   " + ", ".join(str(n) for n in sorted(_FIGURES)))
    print("ablations: " + ", ".join(sorted(_ABLATIONS)))
    print("datasets:  " + ", ".join(available_datasets()))
    print("methods:   " + ", ".join(available_methods()))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _list()
    if args.command == "inspect":
        return _inspect(args)
    if args.command == "query":
        return _query(args)
    if args.command == "delta":
        return _delta(args)
    if args.command == "ledger":
        return _ledger(args)
    if args.values and args.table is None:
        parser.error("--values only applies to --table sweeps")
    if args.methods and args.figure is None:
        parser.error("--methods only applies to --figure sweeps")
    args.methods_resolved = _parse_methods(args.methods, parser) if args.methods else None
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
