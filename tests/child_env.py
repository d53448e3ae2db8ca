"""Environment for the child interpreters that tests start.

pytest's pythonpath and filterwarnings settings reach only the pytest
process, so a child interpreter gets the directory that holds the imported
bayescfar package put first on its PYTHONPATH, and turns warnings into
errors as the pytest process does.
"""

import os
from pathlib import Path

import bayescfar

PACKAGE_ROOT = str(Path(bayescfar.__file__).resolve().parent.parent)


def child_env(**extra: str) -> dict[str, str]:
    """os.environ plus extra, with bayescfar importable in a child interpreter.

    PYTHONWARNINGS is "error" unless extra gives its own value.
    """
    env = {**os.environ, "PYTHONWARNINGS": "error", **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env
