"""The README's Python examples must run as written, and its configs must
be valid for the commands they document."""

import re
from pathlib import Path

from cli_outputs import readme_configs
from scatter_entangle import cli
from scatter_entangle.purity import check_ladder

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def build(cfg):
    """Read a config through the CLI's readers, as its command does; the
    engine's value ranges, for one, are checked there and not in the schema."""
    if "mu1_axis" in cfg:  # reflectmap reads only its two axes
        for key in ("mu1_axis", "c_axis"):
            cli._axis_values(cfg[key])
        return
    mp = cli._masses_from(cfg)
    model = cli._potential_from(cfg, mp)
    cli._engine_from(cfg)
    if "state" in cfg and "k_axis" not in cfg:
        cli._state_from(cfg["state"], mp, model)
    for key in ("q_grid", "k_axis"):
        if key in cfg:
            unit = cfg[key].get("unit", "absolute")
            momenta = cli._axis_values(cfg[key]) * cli._momentum_scale(unit, model)
            if key == "k_axis":  # a sweep's state holds only the widths
                for k in momenta:
                    cli._state_from({"k": k, **cfg["state"]}, mp, model)


def test_readme_configs_pass_their_commands_schema():
    # each ```json block under a command's heading is a config of that command
    schemas = {
        "amplitudes": cli.AMPLITUDES_SCHEMA,
        "purity": cli.PURITY_SCHEMA,
        "sweep": cli.SWEEP_SCHEMA,
        "reflectmap": cli.REFLECTMAP_SCHEMA,
    }
    checked = set()
    for command, cfg in readme_configs():
        cli._check_schema(cfg, schemas[command])
        build(cfg)
        checked.add(command)
    assert checked == set(schemas)


def test_readme_states_the_engines_defaults():
    # the $.engine paragraph gives each key's default as "`key` (... default N"
    (para,) = [p for p in README.read_text().split("\n\n") if p.startswith("`$.engine`")]
    stated = dict(re.findall(r"`(\w+)`\s*\([^)]*?default ([\d.e-]+)", para))
    assert {key: float(v) for key, v in stated.items()} == check_ladder()
