"""Build file of the pipeline benchmark.

Compiles the repository's main sources and the benchmark's own sources
(perfbench/src) with the Scala compiler that ships in Spark's jars
directory, into .bench_build/perfbench/classes under the checkout. Nothing
is fetched and nothing is written outside the checkout. A stamp of the
source hashes skips the build when nothing changed.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
CLASSES = BUILD_DIR / "classes"
STAMP = BUILD_DIR / "stamp"


def spark_jars() -> Path:
    """Spark's jars directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise SystemExit("perfbench: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise SystemExit(f"perfbench: no Spark jars directory at {jars}")
    return jars


def sources(root: Path) -> list:
    main = root / "src" / "main" / "scala"
    own = root / "perfbench" / "src"
    if not main.is_dir():
        raise SystemExit(f"perfbench: the repository's main sources ({main}) are missing")
    return sorted(main.rglob("*.scala")) + sorted(own.rglob("*.scala"))


def build(root: Path) -> Path:
    """Compile if the sources changed; return the classes directory."""
    files = sources(root)
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    classes, stamp_file = root / CLASSES, root / STAMP
    if stamp_file.is_file() and stamp_file.read_text() == stamp and classes.is_dir():
        return classes
    shutil.rmtree(root / BUILD_DIR, ignore_errors=True)
    classes.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(spark_jars() / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(classes)]
    cmd += [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr)
    if subprocess.run(cmd, cwd=root).returncode != 0:
        shutil.rmtree(root / BUILD_DIR, ignore_errors=True)
        raise SystemExit("perfbench: compilation failed")
    stamp_file.write_text(stamp)
    return classes
