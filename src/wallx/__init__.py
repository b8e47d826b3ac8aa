"""wallx: exact equivariant wall-crossing checks on the resolved conifold
times a line, with a quiver-stability chamber map and a small CLI."""

__version__ = "0.1.2"
