"""Tag-based diffusion recommenders on folksonomy graphs, plus a
trace-driven gossip simulator for opportunistic networks."""

# the one version string: manifests and the package metadata read it from here
__version__ = "0.1.0"
