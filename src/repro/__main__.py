"""CLI entry point: ``python -m repro <command>``.

Dispatches to :func:`repro.cli.main`. Available commands: ``datasets``,
``figure``, ``ablation``, ``track``, ``serve``, ``trace``, ``load-bench``
and the durable store trio ``store-checkpoint`` / ``store-inspect`` /
``store-recover`` — run ``python -m repro --help`` for details, and see
the README's quickstart for example invocations.
"""

import sys

from .cli import main

sys.exit(main())
