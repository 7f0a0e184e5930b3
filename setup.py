"""Setup shim: ``python setup.py develop`` installs in place without `wheel`."""
from setuptools import setup

setup()
