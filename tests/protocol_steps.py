"""CN protocol rounds and block commits composed from the step functions
the node runtimes call, looping over a CN tree or a VN set without a bus.

Tests use these to check a round's arithmetic and proofs apart from
message routing. Each round returns its output and one (cn_id, payloads)
pair per CN, the payloads being what that CN's proof bundle carries.
"""

from privq import ledger, protocols
from privq.elgamal import DEFAULT_SCALE
from privq.proofs.shuffle import shuffle_and_prove


def aggregate_tree(tree, operation, contributions):
    """Aggregate every DP's response up `tree`, each input passing the width
    rule. `contributions` maps cn_id -> list of responses (ciphertext lists,
    count last) from its DPs; the i-th response of a CN is labelled
    "<cn_id>/<i>", a child's partial sum by the child's id, and a CN with no
    input sends nothing. Returns (the root's sum as a ciphertext list, steps)."""
    partials, steps = {}, []
    for idx in tree.bottom_up():
        cn = tree.nodes[idx]
        labels, parts = [], []
        for i, response in enumerate(contributions.get(cn, [])):
            labels.append(f"{cn}/{i}")
            parts.append(protocols.check_input(operation, response))
        for child in tree.children(idx):
            if partials[child] is not None:
                labels.append(tree.nodes[child])
                parts.append(partials[child])
        partials[idx] = None
        if parts:
            agg = protocols.aggregate(labels, parts)
            partials[idx] = agg.output
            steps.append((cn, [agg.encode()]))
    return list(partials[0]), steps


def key_switch(group, tree, response, target_pk, cn_keys, rng):
    """Switch the response's ciphertexts to `target_pk`: every CN's shares
    summed, then the root's combine. Returns (ciphertext list, steps)."""
    cts = list(response)
    shares, steps = [], []
    for cn in tree.nodes:
        cn_shares, payloads = protocols.round_shares(group, "keyswitch", cts, rng,
                                                     cn_keys[cn], target_pk)
        shares.append(cn_shares)
        steps.append((cn, payloads))
    return protocols.ctks_combine(cts, protocols.sum_vectors(shares)), steps


def obfuscate(group, tree, cts, rng):
    """Blind each ciphertext by the sum of every CN's share.
    Returns (blinded ciphertexts, steps)."""
    shares, steps = [], []
    for cn in tree.nodes:
        cn_shares, payloads = protocols.round_shares(group, "obfuscation", cts, rng)
        shares.append(cn_shares)
        steps.append((cn, payloads))
    return list(protocols.sum_vectors(shares)), steps


def noise_chain(group, epsilon, delta_f, theta, l_count, tree, collective_pk, rng,
                scale=DEFAULT_SCALE):
    """The public noise list shuffled by every CN in `tree.nodes` order.
    Returns (plaintext values, shuffled ciphertexts, steps)."""
    values, current = protocols.initial_noise(group, epsilon, delta_f, theta, l_count,
                                              collective_pk, scale)
    steps = []
    for cn in tree.nodes:
        outputs, proof = shuffle_and_prove(group, current, collective_pk, rng)
        current = list(outputs)
        steps.append((cn, [proof.encode()]))
    return values, current, steps


def commit_block(query_id, query_bytes, maps, vn_keys, chain, local_maps=None):
    """Every VN in `vn_keys` signs the block over `maps` against its own map
    (`local_maps`, default `maps`); the block is sealed onto `chain`."""
    block = chain.next_block(query_id, query_bytes, maps)
    local_maps = maps if local_maps is None else local_maps
    signatures = {vn: ledger.sign_block(chain.group, vn, vn_keys[vn].private, block,
                                        local_maps.get(vn))
                  for vn in sorted(vn_keys)}
    return ledger.seal_block(chain, block, signatures)
