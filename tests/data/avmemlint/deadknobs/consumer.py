"""Fixture: the only consumer of FixtureConfig reads ``fanout``; it
*sets* ``hash_name`` through a keyword, which is not a read."""

from dataclasses import replace


def spread(config):
    return [config.fanout] * 3


def rehash(config):
    return replace(config, hash_name="affine64")
