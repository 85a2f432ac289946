"""Packaging metadata.

The install is dependency-free on purpose — the reproduction runs on a
bare CPython.
"""

from setuptools import find_packages, setup

setup(
    name="repro-adaptive-similarity-join",
    version="0.8.0",
    description=(
        "Reproduction of the EDBT'09 adaptive exact/similarity symmetric "
        "join operator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
