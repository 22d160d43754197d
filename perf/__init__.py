"""The host-time benchmark of the simulator (see README.md)."""
