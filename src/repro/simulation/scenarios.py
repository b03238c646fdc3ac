"""Canned worlds: the scenarios every test, example, and bench runs on.

* :func:`default_economy` — the full Table 1 service roster plus a user
  population; the workload for the clustering and tagging experiments.
* :func:`silkroad_world` — default economy plus the 1DkyBEKt hoard
  lifecycle (accumulation → dissolution → three peeling chains), the
  workload for Table 2 and Figure 2.
* :func:`theft_world` — default economy plus the seven Table 3 thefts,
  each scripted with its recorded movement grammar.
* :func:`micro_economy` — a small, fast world for unit tests.

All scenarios are deterministic in their ``seed``.
"""

from __future__ import annotations

import random

from ..chain.model import COIN
from .actors import (
    BEHAVIOUR_HONEST,
    BEHAVIOUR_RETURN_SAME,
    BEHAVIOUR_STEAL,
    CasinoSite,
    DiceGame,
    DonationService,
    Exchange,
    FixedRateExchange,
    HoardConfig,
    InvestmentScheme,
    MiningPool,
    MiscService,
    Mixer,
    PaymentGateway,
    SilkRoadHoard,
    TheftScript,
    TheftSpec,
    UserActor,
    Vendor,
    WalletService,
)
from .economy import Economy, World, finish
from .params import (
    ChangePolicy,
    DICE_GAMES,
    EconomyParams,
    MIX_SERVICES,
)

# Weights for peel-chain recipients, shaped after Table 2: exchanges
# dominate the known peels (Mt. Gox most), wallets next (Instawallet),
# then gambling and vendors; most peels go to unknown users.
TABLE2_SERVICE_WEIGHTS: dict[str, float] = {
    "Mt Gox": 30.0,
    "Instawallet": 14.0,
    "Bitstamp": 6.0,
    "CA VirtEx": 5.0,
    "Bitcoin 24": 4.0,
    "OKPay": 3.0,
    "Bitcoin Central": 2.0,
    "Bitcoin.de": 1.0,
    "Bitmarket": 1.0,
    "BTC-e": 1.0,
    "Mercado Bitcoin": 1.0,
    "WalletBit": 1.0,
    "BitZino": 2.0,
    "Seals with Clubs": 1.0,
    "Coinabul": 1.0,
    "Medsforbitcoin": 3.0,
    "Silk Road": 9.0,
}

UNKNOWN_RECIPIENT_WEIGHT = 170.0
"""Relative weight of peels going to unknown (unnamed) users; the paper
saw roughly two thirds of peels go to entities it could not name."""


def make_peel_recipient_chooser(
    economy: Economy,
    *,
    service_weights: dict[str, float] | None = None,
    unknown_weight: float = UNKNOWN_RECIPIENT_WEIGHT,
):
    """Build a ``(rng, value) -> (address, label)`` recipient chooser.

    Services are drawn by weight and asked for a live deposit address;
    "unknown" draws pick a random user, whose addresses the analyst
    cannot name — reproducing the known/unknown mix of Table 2.
    """
    weights = dict(service_weights or TABLE2_SERVICE_WEIGHTS)
    available = {
        name: weight for name, weight in weights.items()
        if name in {a.name for a in economy.actors()}
    }
    users = economy.actors_in_category("users")
    entries = sorted(available.items())
    total_service = sum(w for _, w in entries)
    total = total_service + (unknown_weight if users else 0.0)

    def choose(rng: random.Random, _value: int) -> tuple[str, str]:
        roll = rng.random() * total
        acc = 0.0
        for name, weight in entries:
            acc += weight
            if roll <= acc:
                service = economy.actor(name)
                return service.payment_address(), name
        user = rng.choice(users)
        return user.payment_address(), user.name

    return choose


# ----------------------------------------------------------------------
# roster construction
# ----------------------------------------------------------------------

def build_service_roster(economy: Economy) -> dict[str, list]:
    """Register the full Table 1 service roster; returns it by category."""
    params = economy.params
    rng = economy.child_rng("roster")
    roster: dict[str, list] = {
        "mining": [],
        "wallets": [],
        "exchanges": [],
        "fixed": [],
        "vendors": [],
        "gambling": [],
        "miscellaneous": [],
        "investment": [],
    }

    for name in params.mining_pools:
        pool = MiningPool(name, params.pool)
        economy.register(pool, hashrate=rng.uniform(0.5, 3.0))
        roster["mining"].append(pool)

    for name in params.wallet_services:
        service = WalletService(name)
        economy.register(service)
        roster["wallets"].append(service)

    for name in params.bank_exchanges:
        # Big exchanges keep more independent hot-wallet segments — the
        # paper found 20 distinct Mt. Gox clusters.
        n_segments = 6 if name in ("Mt Gox", "BTC-e", "Bitstamp") else 2
        exchange = Exchange(name, params.exchange, n_segments=n_segments)
        economy.register(exchange)
        roster["exchanges"].append(exchange)

    for name in params.fixed_exchanges:
        fixed = FixedRateExchange(name)
        economy.register(fixed)
        roster["fixed"].append(fixed)

    gateway = PaymentGateway("Bitpay")
    economy.register(gateway)
    roster["vendors"].append(gateway)
    # Vendors that must accept coins directly (Table 2 counts peels to
    # them, which requires addresses they themselves control).
    direct_vendors = {"Silk Road", "Coinabul", "Medsforbitcoin", "Casascius"}
    for name in params.vendors:
        if name in ("Bitpay", "WalletBit"):
            continue  # Bitpay is the gateway; WalletBit registered as wallet
        uses_gateway = name not in direct_vendors and rng.random() < 0.6
        vendor = Vendor(name, gateway=gateway if uses_gateway else None)
        economy.register(vendor)
        roster["vendors"].append(vendor)

    for name in params.gambling_sites:
        if name in DICE_GAMES:
            site = DiceGame(name, params.gambling)
        else:
            site = CasinoSite(name)
        economy.register(site)
        roster["gambling"].append(site)

    for name in params.misc_services:
        if name in MIX_SERVICES:
            behaviour = {
                "BitMix": BEHAVIOUR_STEAL,
                "Bitcoin Laundry": BEHAVIOUR_RETURN_SAME,
            }.get(name, BEHAVIOUR_HONEST)
            service = Mixer(name, behaviour=behaviour)
        elif name == "Wikileaks":
            service = DonationService(name)
        else:
            service = MiscService(name)
        economy.register(service)
        roster["miscellaneous"].append(service)

    for name in params.investment_schemes:
        scheme = InvestmentScheme(name)
        economy.register(scheme)
        roster["investment"].append(scheme)

    return roster


GAMBLER_FRACTION = 4
"""Every Nth user is a dice addict (heavy Satoshi-Dice-style traffic)."""


def populate_users(economy: Economy, n_users: int) -> list[UserActor]:
    """Register ``n_users`` ordinary users (every 4th one a gambler)."""
    from dataclasses import replace

    base = economy.params.user
    gambler = replace(
        base,
        activity_rate=0.22,
        gamble_weight=0.70,
        shop_weight=0.10,
        deposit_weight=0.08,
        withdraw_weight=0.07,
        mix_weight=0.05,
    )
    users = []
    for i in range(n_users):
        params = gambler if i % GAMBLER_FRACTION == 0 else base
        user = UserActor(f"user{i:04d}", params)
        economy.register(user)
        users.append(user)
    return users


def wire_pool_members(economy: Economy) -> None:
    """Enroll users, exchanges, and misc services as pool members so that
    mined coins flow into the economy (miners sell at exchanges)."""
    rng = economy.child_rng("pool-members")
    pools = economy.actors_in_category("mining")
    users = economy.actors_in_category("users")
    exchanges = economy.actors_in_category("exchanges")
    misc = economy.actors_in_category("miscellaneous")
    for pool in pools:
        if users:
            for user in rng.sample(users, max(1, len(users) // 4)):
                pool.add_member(user)
        if exchanges:
            for exchange in rng.sample(exchanges, min(4, len(exchanges))):
                pool.add_member(exchange)
        if misc and rng.random() < 0.5:
            pool.add_member(rng.choice(misc))


# ----------------------------------------------------------------------
# canned worlds
# ----------------------------------------------------------------------

def default_economy(
    seed: int = 0,
    *,
    n_blocks: int = 600,
    n_users: int = 60,
    params: EconomyParams | None = None,
    with_attack: bool = True,
    run: bool = True,
) -> World:
    """The full-roster economy used for the clustering experiments.

    With ``with_attack`` (the default) a
    :class:`~repro.tagging.attack.ReidentificationAttack` analyst runs
    inside the world, so ``world.extras["attack"]`` carries the §3 tags.
    """
    params = params or EconomyParams(seed=seed, n_blocks=n_blocks, n_users=n_users)
    economy = Economy(params)
    roster = build_service_roster(economy)
    populate_users(economy, params.n_users)
    wire_pool_members(economy)
    extras: dict = {"roster": roster}
    if with_attack:
        from ..tagging.attack import ReidentificationAttack

        extras["attack"] = ReidentificationAttack.install(economy)
    if run:
        economy.run()
    return finish(economy, **extras)


def micro_economy(
    seed: int = 0, *, n_blocks: int = 150, n_users: int = 12, run: bool = True
) -> World:
    """A small fast world for unit tests: trimmed rosters, fewer blocks."""
    params = EconomyParams(
        seed=seed,
        n_blocks=n_blocks,
        n_users=n_users,
        mining_pools=("Deepbit", "Slush", "Eligius"),
        wallet_services=("Instawallet", "My Wallet"),
        bank_exchanges=("Mt Gox", "Bitstamp", "BTC-e"),
        fixed_exchanges=("BitInstant",),
        vendors=("Silk Road", "Coinabul", "Bitmit"),
        gambling_sites=("Satoshi Dice", "Seals with Clubs"),
        misc_services=("Bitlaundry", "BitMix", "Wikileaks"),
        investment_schemes=("Bitcoin Savings & Trust",),
    )
    return default_economy(seed=seed, params=params, run=run)


def silkroad_world(
    seed: int = 1,
    *,
    n_blocks: int = 1_500,
    n_users: int = 80,
    amount_scale: float = 0.01,
    chain_hops: int = 100,
    run: bool = True,
) -> World:
    """Default economy plus the 1DkyBEKt hoard lifecycle (Table 2, Fig 2).

    Uses 6-hour blocks so the scenario spans the paper's 2011–2013
    window without needing 100k+ blocks.
    """
    params = EconomyParams(
        seed=seed,
        n_blocks=n_blocks,
        n_users=n_users,
        block_interval=21_600,
    )
    economy = Economy(params)
    roster = build_service_roster(economy)
    users = populate_users(economy, params.n_users)
    wire_pool_members(economy)
    from ..tagging.attack import ReidentificationAttack

    attack = ReidentificationAttack.install(economy)

    # Silk Road's sale income funds the hoard; crank purchase volume by
    # dedicating a cohort of heavy buyers to the marketplace.  Darknet
    # buyers are hygienic: fresh change only, never reused addresses —
    # otherwise their sheer volume would weld their own clusters into
    # Silk Road's via mislabeled change and drown the Table 2 naming.
    from dataclasses import replace as _replace

    silkroad = economy.actor("Silk Road")
    rng = economy.child_rng("silkroad-buyers")
    buyers = rng.sample(users, max(4, len(users) // 3))
    careful = ChangePolicy(fresh=0.95, self_change=0.05, reuse=0.0, recent=0.0)
    for buyer in buyers:
        buyer.params = _replace(buyer.params, change_policy=careful)
    for pool in economy.actors_in_category("mining"):
        for buyer in buyers:
            pool.add_member(buyer)

    def buyers_step(economy_: Economy, height: int) -> None:
        for buyer in buyers:
            if buyer.rng.random() < 0.5 and buyer.wallet.balance > COIN // 2:
                amount = buyer.rng.randint(COIN // 10, buyer.wallet.balance // 2)
                buyer._pay(silkroad.sale_address(amount), amount)

    economy.add_step_hook(buyers_step)

    dissolve_height = int(n_blocks * 0.7)
    hoard = SilkRoadHoard(
        "1DkyBEKt hoard",
        HoardConfig(
            accumulate_start=40,
            # Frequent aggregation keeps the marketplace's float small:
            # the war chest sits in the hoard (an unnamed cluster, like
            # the real 1DkyBEKt), not in the vendor category's balance.
            accumulate_interval=10,
            dissolve_height=dissolve_height,
            amount_scale=amount_scale,
            chain_hops=chain_hops,
        ),
        source_wallet_provider=lambda: silkroad.wallet,
    )
    economy.register(hoard)
    hoard.config.recipient_chooser = make_peel_recipient_chooser(economy)
    if run:
        economy.run()
    return finish(economy, roster=roster, hoard=hoard, attack=attack)


# Table 3, verbatim: (name, victim, BTC, movement, reaches exchanges).
# Heights place the thefts along a 6-hour-block timeline starting
# 2011-01-01 (so Jun 2011 ≈ block 600, Oct 2012 ≈ block 2640).
TABLE3_THEFTS: tuple[tuple[str, str, float, str, bool, int], ...] = (
    ("MyBitcoin", "MyBitcoin", 4_019, "A/P/S", True, 600),
    ("Linode", "Bitcoinica", 46_648, "A/P/F", True, 1_700),
    ("Betcoin", "Betcoin", 3_171, "F/A/P", True, 1_760),
    ("Bitcoinica (May)", "Bitcoinica", 18_547, "P/A", True, 2_000),
    ("Bitcoinica (Jul)", "Bitcoinica", 40_000, "P/A/S", True, 2_240),
    ("Bitfloor", "Bitfloor", 24_078, "P/A/P", True, 2_480),
    ("Trojan", "Trojan victims", 3_257, "F/A", False, 2_600),
)

BETCOIN_DORMANCY_BLOCKS = 1_400
"""Betcoin's loot sat from April 2012 to March 2013 (~350 days of
6-hour blocks) before it moved."""


def theft_world(
    seed: int = 2,
    *,
    n_blocks: int = 3_400,
    n_users: int = 50,
    amount_scale: float = 0.01,
    run: bool = True,
) -> World:
    """Default economy plus the seven Table 3 thefts."""
    params = EconomyParams(
        seed=seed,
        n_blocks=n_blocks,
        n_users=n_users,
        block_interval=21_600,
    )
    economy = Economy(params)
    roster = build_service_roster(economy)
    populate_users(economy, params.n_users)

    # Extra victims that are not part of the Table 1 roster.
    mybitcoin = WalletService("MyBitcoin")
    economy.register(mybitcoin)
    betcoin = CasinoSite("Betcoin")
    economy.register(betcoin)
    # Stand-in for the many individual wallets the trojan infected:
    # no consolidation, so the "service" is really a bag of scattered
    # per-victim coins.
    trojan_victims = WalletService("Trojan victims", consolidation_interval=10**9)
    economy.register(trojan_victims)
    wire_pool_members(economy)
    from ..tagging.attack import ReidentificationAttack

    attack = ReidentificationAttack.install(economy)

    # Pre-fund the victims through pool membership so there is something
    # to steal when each theft fires.
    pools = economy.actors_in_category("mining")
    rng = economy.child_rng("victims")
    victims = [mybitcoin, betcoin, trojan_victims,
               economy.actor("Bitcoinica"), economy.actor("Bitfloor")]
    for pool in pools:
        for victim in victims:
            pool.add_member(victim)

    chooser = make_peel_recipient_chooser(economy)
    thefts: list[TheftScript] = []
    for name, victim, paper_btc, movement, reaches, height in TABLE3_THEFTS:
        spec = TheftSpec(
            name=name,
            victim=victim,
            paper_btc=paper_btc,
            theft_height=height,
            movement=movement,
            reaches_exchanges=reaches,
            dormancy_blocks=BETCOIN_DORMANCY_BLOCKS if name == "Betcoin" else 2,
            leave_fraction_dormant=0.85 if name == "Trojan" else 0.0,
            loot_addresses=8 if name == "Trojan" else 3,
        )
        script = TheftScript(
            spec,
            amount_scale=amount_scale,
            recipient_chooser=chooser if reaches else None,
        )
        economy.register(script)
        thefts.append(script)
    # Thieves hold some clean coins (mining income, prior purchases)
    # that the 'F' folding moves blend with the loot.
    for pool in pools:
        for script in thefts:
            if "F" in script.spec.moves():
                pool.add_member(script)

    if run:
        economy.run()
    return finish(economy, roster=roster, thefts=thefts, attack=attack)


