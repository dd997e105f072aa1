"""SHA-256 digest of the CLI's outputs, to compare two checkouts byte for byte.

Runs `sweep`, `etfe`, `identify`, `design`, `track` and `adapt` at their
defaults, plus each shipped config under configs/ with its subcommand, at
`--seed 0` and `--seed 7`, into a temporary directory that is removed
afterwards.  Prints one `sha256  relative/path` line per report.txt and CSV,
sorted by path.  The package is imported from the src/ directory next to
this script, so each checkout digests its own code:

    python scripts/output_digest.py > change.txt
    python /path/to/parent/scripts/output_digest.py > parent.txt
    diff parent.txt change.txt

Exits 1 if a run does not exit 0.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from valvebench.cli import main as cli  # noqa: E402

SEEDS = (0, 7)
RUNS = [(command, [command]) for command in ("sweep", "etfe", "identify", "design", "track", "adapt")] + [
    (name, [command, "--config", os.path.join(ROOT, "configs", f"{name}.cfg")])
    for command, name in (("design", "design_robust"), ("etfe", "etfe_valve0"), ("adapt", "adapt_valve6"))
]


def digests(root: str) -> list[str]:
    lines = []
    for folder, _, files in os.walk(root):
        for name in files:
            if name == "report.txt" or name.endswith(".csv"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{digest}  {os.path.relpath(path, root)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        for seed in SEEDS:
            for label, argv in RUNS:
                out = os.path.join(root, f"seed{seed}", label)
                rc = cli(argv + ["--seed", str(seed), "--out", out])
                if rc != 0:
                    print(f"{' '.join(argv)} --seed {seed} exited {rc}", file=sys.stderr)
                    return 1
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
