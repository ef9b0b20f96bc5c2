"""Command-line frontend: encode/repair/decode files as per-node shards,
plus the metrics, simulation, and reliability reports.

Exit codes: 0 success, 2 usage error (an OSError included, such as an
output path that cannot be written, and a MemoryError, such as a stripe
too large to hold), 3 insufficient data, 4 integrity failure; each
failure prints one "error:" line.  One handler on the command group
applies them to every command; any other exception propagates, since it
is a bug.  Every randomized path takes a seed (defaulted and echoed in
the output), and commands are idempotent: rerunning with the same
inputs rewrites the same bytes.

This module parses arguments and prints messages and exit codes; shards
reads and writes the files.  Each file command is one call to a shards
workflow: encode to write_shard_set, decode to decode_file, repair to
repair_shard.  repair --dry-run reads no shard file: it prints the plan
for the node with every other node present.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import stat
import sys
import tempfile
import typing
from pathlib import Path

import click

from . import metrics as metrics_mod
from . import reliability as rel_mod
from . import repair as repair_mod
from . import sim as sim_mod
from .core import SrcParams
from .errors import (InsufficientDataError, IntegrityError, ParameterError,
                     SrcError)
from .shards import (atomic_writer, decode_file, load_manifest,
                     read_regular_file, repair_shard, shard_filename,
                     write_shard_set)

EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3
EXIT_INTEGRITY = 4


def _parse_pairs(option: str, text: str, example: str) -> list[tuple[int, int]]:
    """'10,6 20,16' -> [(10, 6), (20, 16)]; anything else is a usage error."""
    try:
        pairs = [tuple(int(x) for x in item.split(",")) for item in text.split()]
        if any(len(p) != 2 for p in pairs):
            raise ValueError
    except ValueError:
        raise ParameterError(f"cannot parse {option} {text!r}; "
                             f"expected e.g. {example!r}")
    return pairs


class _Group(click.Group):
    """Maps library errors onto exit codes, once for every command."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (SrcError, OSError, MemoryError) as exc:
            oom = "out of memory: " if isinstance(exc, MemoryError) else ""
            click.echo(f"error: {oom}{exc}", err=True)
            sys.exit(EXIT_INSUFFICIENT if isinstance(exc, InsufficientDataError)
                     else EXIT_INTEGRITY if isinstance(exc, IntegrityError)
                     else EXIT_USAGE)


@click.group(cls=_Group)
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
def cmd_encode(input_file: Path, n: int, k: int, f: int, chunk_size: int,
               out: Path) -> None:
    """Encode INPUT_FILE into n shard files plus a manifest."""
    params = SrcParams(n=n, k=k, f=f, chunk_size=chunk_size)
    with open(input_file, "rb") as fh, contextlib.ExitStack() as stack:
        info = os.fstat(fh.fileno())
        source, size = fh, info.st_size
        # a pipe's size is known once read: spool it, not into memory
        if not stat.S_ISREG(info.st_mode):
            source = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(fh, source)
            size = source.tell()
            source.seek(0)
        manifest_path = write_shard_set(out, params, source, size)
    click.echo(f"encoded {size} bytes into {n} shards "
               f"({params.stripes(size)} stripes) under {out}")
    click.echo(f"manifest: {manifest_path}")


@main.command("repair")
@click.option("--manifest", "manifest_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--shards", "shard_dir",
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True)
@click.option("--node", type=int, required=True, help="failed node index (1-based)")
@click.option("--dry-run", is_flag=True,
              help="print the look-up plan with every other node present; "
                   "reads and writes no shard file")
def cmd_repair(manifest_path: Path, shard_dir: Path, node: int,
               dry_run: bool) -> None:
    """Rebuild one node's shard from its look-up helpers."""
    manifest = load_manifest(manifest_path)
    if dry_run:
        for line in repair_mod.describe(manifest.params, node,
                                        manifest.stripe_count):
            click.echo(line)
        return
    reader = repair_shard(manifest, shard_dir, node)
    mode = "reconstruction fallback" if reader.blocked else "look-up repair"
    click.echo(f"rebuilt {shard_filename(node)} via {mode}; digest verified")


@main.command("decode")
@click.option("--manifest", "manifest_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--shards", "shard_dir",
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              required=True)
def cmd_decode(manifest_path: Path, shard_dir: Path, out: Path) -> None:
    """Rebuild the original file from any k intact shards."""
    manifest = load_manifest(manifest_path)
    own = {path.resolve(): path.name for path in [manifest_path, *(
        shard_dir / shard_filename(node) for node in manifest.shard_digests)]}
    if out.resolve() in own:
        raise ParameterError(f"--out would replace {own[out.resolve()]}, "
                             "a file of the shard set")
    decode_file(manifest, shard_dir, out)
    click.echo(f"decoded {manifest.file_size} bytes to {out} "
               "(digest verified)")


@main.command("metrics")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--f", type=int, default=2, show_default=True)
@click.option("--csv", "as_csv", is_flag=True, help="emit comma-separated rows")
@click.option("--asymptotic", is_flag=True,
              help="also emit the f=log2(k) trend table for this rate")
def cmd_metrics(n: int, k: int, f: int, as_csv: bool, asymptotic: bool) -> None:
    """Print the five-scheme comparison table for (n, k, f)."""
    rows = metrics_mod.comparison_table(n, k, f)   # MDS first, SRC last
    click.echo(metrics_mod.csv_table(rows) if as_csv
               else metrics_mod.format_table(rows))
    click.echo(f"normalized storage cost vs 3-way replication: "
               f"SRC {rows[-1].normalized_cost:.4f}, "
               f"RS {rows[0].normalized_cost:.4f}")
    if asymptotic:
        ks = [2 ** e for e in range(3, 21, 2)]
        click.echo("asymptotics (f = log2 k, fixed rate k/n):")
        click.echo("k,f,src_rate,bandwidth_ratio_vs_msr")
        for row in metrics_mod.asymptotic_report(ks, rate=k / n):
            click.echo(f"{row.k},{row.f!r},{row.src_rate!r},"
                       f"{row.bandwidth_ratio!r}")


def _scheme_from_options(kind: str, n: int, k: int, f: int) -> sim_mod.Scheme:
    """Scheme validates the kind: one a config file misspells is an error."""
    if kind == "replication":
        return sim_mod.Scheme.replication()
    return sim_mod.Scheme(kind, n, k, f if kind == "src" else None)


def _read_config(path: Path) -> dict:
    """ClusterConfig fields from a JSON file; anything else, a value of
    the wrong type or a file that is not a regular one included, is a
    usage error."""
    text = read_regular_file(path, "config")
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:   # nested too deep, or not JSON
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
    # a float field takes an int too; bool is an int to isinstance only
    for cls, prefix, values in ((sim_mod.ClusterConfig, "", doc),
                                (sim_mod.Scheme, "scheme.",
                                 doc.get("scheme", {}))):
        hints = typing.get_type_hints(cls)
        for key, value in values.items():
            want = hints[key]
            if want is sim_mod.Scheme:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, int | float if want is float else want):
                raise ParameterError(
                    f"{path.name}: {prefix}{key} must be of type "
                    f"{getattr(want, '__name__', want)}, got {value!r}")
    return doc


# scheme keys a kind does not use, an error in a config file: replication
# is always (3, 1), and only SRC has an f
_UNUSED_SCHEME_KEYS = {"replication": {"n", "k", "f"}, "rs": {"f"}}

# simulate's defaults are ClusterConfig's
_CLUSTER = {fld.name: fld.default
            for fld in dataclasses.fields(sim_mod.ClusterConfig)}


@main.command("simulate")
@click.option("--scheme", type=click.Choice(["replication", "rs", "src"]),
              required=True)
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--k", type=int, default=6, show_default=True)
@click.option("--f", type=int, default=2, show_default=True)
@click.option("--machines", default=_CLUSTER["machines"], show_default=True)
@click.option("--data-per-machine", default=_CLUSTER["data_bytes_per_machine"],
              show_default=True, help="bytes stored per machine")
@click.option("--chunk-size", default=_CLUSTER["chunk_size"],
              show_default=True)
@click.option("--seed", default=_CLUSTER["seed"], show_default=True)
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
def cmd_simulate(scheme: str, n: int, k: int, f: int, machines: int,
                 data_per_machine: int, chunk_size: int, seed: int,
                 failed_machine: int, degraded: bool, sweep: str | None,
                 config_path: Path | None, out: Path | None,
                 cdf_out: Path | None) -> None:
    """Simulate repairing one failed machine and report throughput."""
    if sweep is not None and cdf_out is not None:
        raise ParameterError("--cdf-out needs a single run; it cannot be "
                             "used with --sweep")
    if out is not None and cdf_out is not None \
            and out.resolve() == cdf_out.resolve():
        raise ParameterError("--out and --cdf-out name the same file")
    fields = {"machines": machines, "data_bytes_per_machine": data_per_machine,
              "chunk_size": chunk_size, "seed": seed}
    if config_path is not None:
        fields.update(_read_config(config_path))
        sch = fields.pop("scheme", {})
        scheme, n = sch.get("kind", scheme), sch.get("n", n)
        k, f = sch.get("k", k), sch.get("f", f)
        unused = sorted(set(sch) & _UNUSED_SCHEME_KEYS.get(scheme, set()))
        if unused:
            raise ParameterError(
                f"{config_path.name}: {scheme} does not use key(s) "
                + ", ".join(f"scheme.{key}" for key in unused))
    if sweep is not None and scheme == "replication":
        raise ParameterError("--sweep varies n and k, which replication "
                             "does not use")

    def make_config(nn: int, kk: int) -> sim_mod.ClusterConfig:
        return sim_mod.ClusterConfig(
            scheme=_scheme_from_options(scheme, nn, kk, f), **fields)

    def run_one(cfg: sim_mod.ClusterConfig) -> sim_mod.SimReport:
        cluster = sim_mod.build_cluster(cfg)
        if degraded:
            return sim_mod.run_degraded_read(cluster, failed_machine)
        return sim_mod.run_node_failure(cluster, failed_machine)

    with contextlib.ExitStack() as stack:
        # opened before the run: an unwritable path fails fast, and an
        # error leaves neither file
        cdf_fh, out_fh = (None if path is None
                          else stack.enter_context(atomic_writer(path))
                          for path in (cdf_out, out))
        if sweep is not None:
            lines = ["scheme,n,k,throughput_bytes_per_s,elapsed_s"]
            for nn, kk in _parse_pairs("sweep", sweep, "10,6 20,16 50,46"):
                rep = run_one(make_config(nn, kk))
                lines.append(f'"{rep.scheme}",{nn},{kk},{rep.throughput!r},'
                             f"{rep.elapsed!r}")
            text = "\n".join(lines)
        else:
            report = run_one(make_config(n, k))
            text = report.to_text()
            if cdf_fh is not None:
                cdf_fh.write(f"{sim_mod.cdf_csv(report)}\n".encode())
        if out_fh is not None:
            out_fh.write(f"{text}\n".encode())
        else:
            click.echo(text)
    if out is not None:
        click.echo(f"report written to {out}")
    if cdf_out is not None:
        click.echo(f"CDF written to {cdf_out}")


@main.command("reliability")
@click.option("--pairs", default="10,6 20,16 50,46", show_default=True,
              help="space-separated n,k pairs for the RS/SRC rows")
@click.option("--system-bytes", type=float,
              default=rel_mod.DEFAULT_SYSTEM_BYTES, show_default=True)
@click.option("--node-bytes", type=float,
              default=rel_mod.DEFAULT_NODE_BYTES, show_default=True,
              help="useful bytes per node; sets the number of redundancy "
                   "sets only, as repair times are simulated on the default "
                   "4 GB-per-machine cluster whatever this is")
@click.option("--disk-mttf-hours", type=float,
              default=rel_mod.DISK_MTTF_HOURS, show_default=True)
@click.option("--csv", "as_csv", is_flag=True)
def cmd_reliability(pairs: str, system_bytes: float, node_bytes: float,
                    disk_mttf_hours: float, as_csv: bool) -> None:
    """Markov MTTF table: scheme x (n, k).

    Node repair times come from the simulator on the default cluster:
    3-way replication takes 15 minutes, every other scheme 15 minutes
    times its simulated rebuild time over replication's."""
    rows = rel_mod.mttf_table(_parse_pairs("pairs", pairs, "10,6 20,16"),
                              system_bytes=system_bytes,
                              node_bytes=node_bytes,
                              disk_mttf_hours=disk_mttf_hours)
    click.echo(rel_mod.csv_mttf_table(rows) if as_csv
               else rel_mod.format_mttf_table(rows))


if __name__ == "__main__":
    main()
