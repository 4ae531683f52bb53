"""Packaging for the ``repro`` library.

Installs the reproduction of Guo, Li, Sha, Tan, "Parallel Personalized
PageRank on Dynamic Graphs" (PVLDB 11(1), 2017). The long description is
the project README; see ``docs/architecture.md`` for the module map and
``python -m repro --help`` for the CLI this package installs as its entry
point.
"""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).parent / "README.md"

setup(
    name="repro-dynamic-ppr",
    version="1.0.0",
    description=(
        "Parallel Personalized PageRank on Dynamic Graphs (PVLDB'17):"
        " incremental maintenance, parallel local push, and a multi-query"
        " serving layer"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: the typed request/response API is visible to type-checkers.
    # The C kernel source ships with the wheel: it is compiled on demand at
    # runtime (repro.kernels.build), not at install time.
    package_data={"repro": ["py.typed"], "repro.kernels": ["_push.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    # Exact solvers (repro.core.groundtruth) for tests and accuracy reports.
    extras_require={"groundtruth": ["scipy"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Information Analysis",
        "Typing :: Typed",
    ],
)
