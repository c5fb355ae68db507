"""CN protocol rounds and block commits composed from the step functions
the node runtimes call, looping over a CN tree or a VN set without a bus.

Tests use these to check a round's arithmetic and proofs apart from
message routing. Each round returns its output and one (cn_id, payloads)
pair per CN, the payloads being what that CN's proof bundle carries.
"""

from privq import ledger, protocols
from privq.elgamal import DEFAULT_SCALE
from privq.encodings import EncodedResponse
from privq.proofs.shuffle import shuffle_and_prove


def response_cts(response) -> tuple:
    return tuple(response.vector) + (response.count,)


def aggregate_tree(tree, operation, contributions):
    """Aggregate every DP's response up `tree`, each input passing the width
    rule. `contributions` maps cn_id -> list of EncodedResponse from its
    DPs; the i-th response of a CN is labelled "<cn_id>/<i>", a child's
    partial sum by the child's id, and a CN with no input sends nothing.
    Returns (the root's sum as an EncodedResponse, steps)."""
    partials, steps = {}, []
    for idx in tree.bottom_up():
        cn = tree.nodes[idx]
        labels, parts = [], []
        for i, response in enumerate(contributions.get(cn, [])):
            labels.append(f"{cn}/{i}")
            parts.append(protocols.check_input(operation, response_cts(response)))
        for child in tree.children(idx):
            if partials[child] is not None:
                labels.append(tree.nodes[child])
                parts.append(partials[child])
        partials[idx] = None
        if parts:
            agg = protocols.aggregate(labels, parts)
            partials[idx] = agg.output
            steps.append((cn, [agg.encode()]))
    result = partials[0]
    return EncodedResponse(list(result[:-1]), result[-1]), steps


def key_switch(group, tree, response, target_pk, cn_keys, rng):
    """Switch the response's ciphertexts to `target_pk`: every CN's shares
    summed, then the root's combine. Returns (EncodedResponse, steps)."""
    cts = response_cts(response)
    sums, steps = None, []
    for cn in tree.nodes:
        shares, payloads = protocols.ctks_shares(group, cts, cn_keys[cn], target_pk, rng)
        sums = shares if sums is None else protocols.add_shares(sums, shares)
        steps.append((cn, payloads))
    switched = protocols.ctks_combine(cts, sums)
    return EncodedResponse(switched[:-1], switched[-1]), steps


def obfuscate(group, tree, cts, rng):
    """Blind each ciphertext by the sum of every CN's share.
    Returns (blinded ciphertexts, steps)."""
    sums, steps = None, []
    for cn in tree.nodes:
        shares, payloads = protocols.cto_shares(group, cts, rng)
        sums = shares if sums is None else protocols.add_shares(sums, shares)
        steps.append((cn, payloads))
    return sums, steps


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
