"""Command-line frontend: encode/repair/decode files as per-node shards,
plus the metrics, simulation, and reliability reports.

Exit codes: 0 success, 2 usage error, 3 insufficient data, 4 integrity
failure.  Every randomized path takes a seed (defaulted and echoed in
the output), and commands are idempotent: rerunning with the same inputs
rewrites the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import click

from . import metrics as metrics_mod
from . import reliability as rel_mod
from . import sim as sim_mod
from .core import SrcParams, encode, layout, reconstruct
from .errors import (InsufficientDataError, IntegrityError, ParameterError,
                     PlacementError, RepairError, ShapeError)
from .repair import (ChunkStore, chunks_from_shards, execute_repair,
                     node_repair_plan)
from .shards import (available_nodes, load_manifest, load_shard_checked,
                     shard_bytes, write_coded_array)

EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3
EXIT_INTEGRITY = 4


def _exit_codes(fn):
    """Map library errors onto the documented exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, PlacementError, ShapeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except (InsufficientDataError, RepairError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INSUFFICIENT)
        except IntegrityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INTEGRITY)

    return wrapper


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@click.group()
def main() -> None:
    """Simple regenerating code toolkit."""


@main.command("encode")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False,
                                              path_type=Path))
@click.option("--n", type=int, required=True, help="storage node count")
@click.option("--k", type=int, required=True, help="reconstruction threshold")
@click.option("--f", type=int, required=True, help="parity degree")
@click.option("--chunk-size", type=int, default=64 * 1024, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path),
              required=True, help="output directory for shards + manifest")
@_exit_codes
def cmd_encode(input_file: Path, n: int, k: int, f: int, chunk_size: int,
               out: Path) -> None:
    """Encode INPUT_FILE into n shard files plus a manifest."""
    data = input_file.read_bytes()
    params = SrcParams(n=n, k=k, f=f, chunk_size=chunk_size)
    array = encode(data, params)
    manifest_path = write_coded_array(array, out, _sha256(data))
    click.echo(f"encoded {len(data)} bytes into {n} shards "
               f"({array.stripe_count} stripes) under {out}")
    click.echo(f"manifest: {manifest_path}")


def _rebuild_via_lookup(manifest, shard_dir: Path, node: int):
    params = manifest.params
    plan = node_repair_plan(params, node)
    helpers = {}
    for helper in sorted(plan.disk_access_set):
        path = manifest.shard_path(shard_dir, helper)
        if not path.exists():
            raise RepairError(f"helper shard {path.name} is missing")
        helpers[helper] = load_shard_checked(manifest, shard_dir, helper)
    store = ChunkStore(params, helpers, manifest.stripe_count)
    return plan, execute_repair(plan, store)


def _rebuild_via_reconstruction(manifest, shard_dir: Path, node: int):
    params = manifest.params
    nodes = [i for i in available_nodes(manifest, shard_dir) if i != node]
    if len(nodes) < params.k:
        raise InsufficientDataError(
            f"only {len(nodes)} live shards; need {params.k} to reconstruct")
    shards = {i: load_shard_checked(manifest, shard_dir, i)
              for i in nodes[:params.k]}
    return chunks_from_shards(params, shards, layout(params).node_chunks(node))


@main.command("repair")
@click.option("--manifest", "manifest_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--shards", "shard_dir",
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True)
@click.option("--node", type=int, required=True, help="failed node index (1-based)")
@click.option("--dry-run", is_flag=True,
              help="print the repair plan, write nothing")
@_exit_codes
def cmd_repair(manifest_path: Path, shard_dir: Path, node: int,
               dry_run: bool) -> None:
    """Rebuild one node's shard from its look-up helpers."""
    manifest = load_manifest(manifest_path)
    params = manifest.params
    if not 1 <= node <= params.n:
        raise ParameterError(f"node {node} outside [1, {params.n}]")
    if dry_run:
        plan = node_repair_plan(params, node)
        for line in plan.describe(manifest.stripe_count):
            click.echo(line)
        return
    try:
        _, shard = _rebuild_via_lookup(manifest, shard_dir, node)
        mode = "look-up repair"
    except RepairError as exc:
        click.echo(f"look-up repair blocked ({exc}); "
                   "falling back to reconstruction", err=True)
        shard = _rebuild_via_reconstruction(manifest, shard_dir, node)
        mode = "reconstruction fallback"
    blob = shard_bytes(params, node, manifest.stripe_count,
                       manifest.file_size, shard)
    if _sha256(blob) != manifest.shard_digests[node]:
        raise IntegrityError(
            f"rebuilt shard for node {node} does not match the manifest digest")
    out_path = manifest.shard_path(shard_dir, node)
    out_path.write_bytes(blob)
    click.echo(f"rebuilt {out_path.name} via {mode}; digest verified")


@main.command("decode")
@click.option("--manifest", "manifest_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--shards", "shard_dir",
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              required=True)
@_exit_codes
def cmd_decode(manifest_path: Path, shard_dir: Path, out: Path) -> None:
    """Rebuild the original file from any k shards."""
    manifest = load_manifest(manifest_path)
    params = manifest.params
    nodes = available_nodes(manifest, shard_dir)
    if len(nodes) < params.k:
        raise InsufficientDataError(
            f"only {len(nodes)} shards present; need {params.k}")
    shards = {i: load_shard_checked(manifest, shard_dir, i)
              for i in nodes[:params.k]}
    data = reconstruct(shards, params, manifest.file_size)
    if _sha256(data) != manifest.file_digest:
        raise IntegrityError("decoded file does not match the manifest digest")
    out.write_bytes(data)
    click.echo(f"decoded {len(data)} bytes to {out} (digest verified)")


@main.command("metrics")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--f", type=int, default=2, show_default=True)
@click.option("--csv", "as_csv", is_flag=True, help="emit comma-separated rows")
@click.option("--asymptotic", is_flag=True,
              help="also emit the f=log2(k) trend table for this rate")
@_exit_codes
def cmd_metrics(n: int, k: int, f: int, as_csv: bool, asymptotic: bool) -> None:
    """Print the five-scheme comparison table for (n, k, f)."""
    rows = metrics_mod.comparison_table(n, k, f)
    click.echo(metrics_mod.csv_table(rows) if as_csv
               else metrics_mod.format_table(rows))
    src_cost = metrics_mod.replication_normalized_cost(n, k, f)
    rs_cost = metrics_mod.replication_normalized_cost(n, k)
    click.echo(f"normalized storage cost vs 3-way replication: "
               f"SRC {src_cost:.4f}, RS {rs_cost:.4f}")
    if asymptotic:
        ks = [2 ** e for e in range(3, 21, 2)]
        click.echo("asymptotics (f = log2 k, fixed rate k/n):")
        click.echo("k,f,src_rate,bandwidth_ratio_vs_msr")
        for row in metrics_mod.asymptotic_report(ks, rate=k / n):
            click.echo(f"{row.k},{row.f!r},{row.src_rate!r},"
                       f"{row.bandwidth_ratio!r}")


def _scheme_from_options(scheme: str, n: int, k: int, f: int) -> sim_mod.Scheme:
    if scheme == "replication":
        return sim_mod.Scheme.replication()
    if scheme == "rs":
        return sim_mod.Scheme.rs(n, k)
    return sim_mod.Scheme.src(n, k, f)


def _read_config(path: Path) -> dict:
    """ClusterConfig fields from a JSON file; anything else is a usage error."""
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:
        raise ParameterError(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("scheme", {}), dict):
        raise ParameterError(f"{path.name}: the file and its scheme must be "
                             "JSON objects")
    fields = {fld.name for fld in dataclasses.fields(sim_mod.ClusterConfig)}
    scheme_fields = {fld.name for fld in dataclasses.fields(sim_mod.Scheme)}
    unknown = sorted(set(doc) - fields) + sorted(
        f"scheme.{key}" for key in set(doc.get("scheme", {})) - scheme_fields)
    if unknown:
        raise ParameterError(f"{path.name}: unknown key(s) {', '.join(unknown)}")
    return doc


@main.command("simulate")
@click.option("--scheme", type=click.Choice(["replication", "rs", "src"]),
              required=True)
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--k", type=int, default=6, show_default=True)
@click.option("--f", type=int, default=2, show_default=True)
@click.option("--machines", type=int, default=100, show_default=True)
@click.option("--data-per-machine", type=int, default=4_000_000_000,
              show_default=True, help="bytes stored per machine")
@click.option("--chunk-size", type=int, default=64 * 2**20, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--failed-machine", type=int, default=0, show_default=True)
@click.option("--degraded", is_flag=True,
              help="degraded-read experiment (no write-back)")
@click.option("--sweep", default=None,
              help="space-separated n,k pairs: run the scheme across them "
                   "and emit a comma-separated throughput series")
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="JSON file with ClusterConfig fields (file values win)")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              help="write the report here instead of stdout")
@click.option("--cdf-out", type=click.Path(dir_okay=False, path_type=Path),
              help="write the repair-time CDF as CSV")
@_exit_codes
def cmd_simulate(scheme: str, n: int, k: int, f: int, machines: int,
                 data_per_machine: int, chunk_size: int, seed: int,
                 failed_machine: int, degraded: bool, sweep: str | None,
                 config_path: Path | None, out: Path | None,
                 cdf_out: Path | None) -> None:
    """Simulate repairing one failed machine and report throughput."""
    fields = {"machines": machines, "data_bytes_per_machine": data_per_machine,
              "chunk_size": chunk_size, "seed": seed}
    if config_path is not None:
        fields.update(_read_config(config_path))
        sch = fields.pop("scheme", {})
        scheme, n = sch.get("kind", scheme), sch.get("n", n)
        k, f = sch.get("k", k), sch.get("f", f)

    def make_config(nn: int, kk: int) -> sim_mod.ClusterConfig:
        return sim_mod.ClusterConfig(
            scheme=_scheme_from_options(scheme, nn, kk, f), **fields)

    def run_one(cfg: sim_mod.ClusterConfig) -> sim_mod.SimReport:
        cluster = sim_mod.build_cluster(cfg)
        if degraded:
            return sim_mod.run_degraded_read(cluster, failed_machine)
        return sim_mod.run_node_failure(cluster, failed_machine)

    wrote_cdf = False
    if sweep is not None:
        try:
            pairs = [tuple(int(x) for x in item.split(","))
                     for item in sweep.split()]
            if any(len(p) != 2 for p in pairs):
                raise ValueError
        except ValueError:
            raise ParameterError(f"cannot parse sweep {sweep!r}; "
                                 "expected e.g. '10,6 20,16 50,46'")
        lines = ["scheme,n,k,throughput_bytes_per_s,elapsed_s"]
        for nn, kk in pairs:
            rep = run_one(make_config(nn, kk))
            lines.append(f'"{rep.scheme}",{nn},{kk},{rep.throughput!r},'
                         f"{rep.elapsed!r}")
        text = "\n".join(lines)
    else:
        report = run_one(make_config(n, k))
        text = report.to_text()
        if cdf_out is not None:
            cdf_out.write_text(sim_mod.cdf_csv(report) + "\n")
            wrote_cdf = True
    if out is not None:
        out.write_text(text + "\n")
        click.echo(f"report written to {out}")
    else:
        click.echo(text)
    if wrote_cdf:
        click.echo(f"CDF written to {cdf_out}")


@main.command("reliability")
@click.option("--pairs", default="10,6 20,16 50,46", show_default=True,
              help="space-separated n,k pairs for the RS/SRC rows")
@click.option("--system-bytes", type=float, default=1e15, show_default=True)
@click.option("--node-bytes", type=float, default=4e9, show_default=True)
@click.option("--disk-mttf-hours", type=float,
              default=rel_mod.DISK_MTTF_HOURS, show_default=True)
@click.option("--csv", "as_csv", is_flag=True)
@_exit_codes
def cmd_reliability(pairs: str, system_bytes: float, node_bytes: float,
                    disk_mttf_hours: float, as_csv: bool) -> None:
    """Markov MTTF table: scheme x (n, k)."""
    try:
        pair_list = [tuple(int(x) for x in item.split(","))
                     for item in pairs.split()]
        if any(len(p) != 2 for p in pair_list):
            raise ValueError
    except ValueError:
        raise ParameterError(f"cannot parse pairs {pairs!r}; "
                             "expected e.g. '10,6 20,16'")
    rows = rel_mod.mttf_table(pair_list, system_bytes=system_bytes,
                              node_bytes=node_bytes,
                              disk_mttf_hours=disk_mttf_hours)
    click.echo(rel_mod.csv_mttf_table(rows) if as_csv
               else rel_mod.format_mttf_table(rows))


if __name__ == "__main__":
    main()
