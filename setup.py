"""Build script. The project is declared in pyproject.toml; this file lets
setuptools without wheel support install the checkout with
``setup.py develop``."""

from setuptools import setup

setup()
