"""The shape the default scope must reach: a coarse-view sampler that
walks the whole population for every sample it draws."""


class Sampler:
    def __init__(self, population, rng):
        self.population = tuple(population)
        self.rng = rng

    def sample_for(self, node, size):
        pool = [p for p in self.population if p != node]
        picks = self.rng.choice(len(pool), size=size, replace=False)
        return tuple(pool[i] for i in picks)

    def online_pool(self, presence, now):
        return [n for n in self.population if presence.is_online(n, now)]
