/* The match kernel in C, line for line the pure-Python one in _kernels.py.
 *
 * bmn_play_loops is play_match_loops: _py_run's trick loop on ring-buffer
 * decks, Brent's cycle detector with the same first block and trick limit,
 * and _py_transient's lockstep pass. bmn_simulate is simulate_batch: the
 * splitmix64 Fisher-Yates deal of SplitMix64.shuffle (masked rejection as
 * in SplitMix64.below), then play_match_loops with A leading.
 * bmn_first_insertion is first_insertion: the same shuffle of a deck's
 * insertion points, then play_match_loops on the deck with a fragment
 * spliced in at each point in turn until one loops. bmn_search is search,
 * the whole breadth-first backward search over states packed as
 * _kernels.pack packs them. Its step is _py_step, the inverse of a trick:
 * the closing-block test, then _parse_pile on every bottom slice of the
 * winner's deck, each parse packed the same way as a predecessor.
 * Results are bit for bit the Python ones. _kernels compiles this file with
 * `cc -O2 -shared -fPIC` and calls it through ctypes; it uses no Python API.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_CARDS 1024 /* cards in play; a power of two, the rings' size */
#define FIRST_BLOCK 64 /* _BRENT_FIRST_BLOCK */
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define HEADER 5      /* bytes ahead of the cards in a packed state */

typedef struct {
    uint8_t card[2][MAX_CARDS]; /* deck p is card[p][head[p]], ... */
    uint32_t head[2], len[2];
    uint32_t mask;              /* ring index mask: a power of two minus one */
    int cur;                    /* the player leading the next trick */
} game_t;

static void load(game_t *g, const uint8_t *a, uint32_t na, const uint8_t *b,
                 uint32_t nb, int leader)
{
    uint32_t ring = 1;
    while (ring < na + nb)
        ring *= 2;
    g->mask = ring - 1;
    memcpy(g->card[0], a, na);
    memcpy(g->card[1], b, nb);
    g->head[0] = g->head[1] = 0;
    g->len[0] = na;
    g->len[1] = nb;
    g->cur = leader;
}

static int same(const game_t *x, const game_t *y)
{
    if (x->cur != y->cur || x->len[0] != y->len[0])
        return 0;
    for (int p = 0; p < 2; p++)
        for (uint32_t i = 0; i < x->len[p]; i++)
            if (x->card[p][(x->head[p] + i) & x->mask]
                    != y->card[p][(y->head[p] + i) & y->mask])
                return 0;
    return 1;
}

/* _py_run: play up to n tricks; status 0 = ended (g->cur won), 1 = reached
 * the state `watch` at a trick boundary, 2 = played n tricks. */
static int run(game_t *g, int64_t n, const game_t *watch, int64_t *played)
{
    uint8_t pile[MAX_CARDS];
    uint32_t mask = g->mask;
    int cur = g->cur;
    int64_t tricks = 0;
    while (tricks < n) {
        int pending = 0, challenger = 0, winner;
        uint32_t np = 0;
        for (;;) {
            if (g->len[cur] == 0) {
                /* required to flip from an empty deck: the other player wins */
                winner = 1 - cur;
                break;
            }
            uint8_t card = g->card[cur][g->head[cur]];
            g->head[cur] = (g->head[cur] + 1) & mask;
            g->len[cur]--;
            pile[np++] = card;
            if (card > 0) {
                challenger = cur;
                pending = card;
                cur = 1 - cur;
            } else if (pending > 0) {
                if (--pending == 0) {
                    winner = challenger;
                    break;
                }
            } else {
                cur = 1 - cur;
            }
        }
        uint32_t tail = g->head[winner] + g->len[winner];
        for (uint32_t i = 0; i < np; i++)
            g->card[winner][(tail + i) & mask] = pile[i];
        g->len[winner] += np;
        tricks++;
        cur = winner;
        g->cur = cur;
        if (g->len[1 - winner] == 0) {
            *played = tricks;
            return 0;
        }
        if (watch && same(g, watch)) {
            *played = tricks;
            return 1;
        }
    }
    g->cur = cur;
    *played = tricks;
    return 2;
}

/* _py_transient: two copies of the match, `period` tricks apart, run in
 * lockstep; -1 once the transient would exceed max_transient. */
static int64_t transient(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                         int leader, int64_t period, int64_t max_transient)
{
    game_t behind, ahead;
    int64_t played, t = 0;
    load(&behind, a, na, b, nb, leader);
    load(&ahead, a, na, b, nb, leader);
    run(&ahead, period, NULL, &played);
    while (!same(&behind, &ahead)) {
        if (t == max_transient)
            return -1;
        run(&behind, 1, NULL, &played);
        run(&ahead, 1, NULL, &played);
        t++;
    }
    return t;
}

/* play_match_loops: returns the status and writes (a, b) of the result. */
static int play(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                int leader, int64_t max_tricks, int64_t *out)
{
    game_t g, saved;
    int64_t tricks, played;
    load(&g, a, na, b, nb, leader);
    int status = run(&g, FIRST_BLOCK, NULL, &tricks);
    if (status == 0) {
        if (tricks <= max_tricks) {
            out[0] = g.cur;
            out[1] = tricks;
            return 0;
        }
        goto over;
    }
    int64_t last = FIRST_BLOCK;
    while (last < max_tricks + FIRST_BLOCK - 1)
        last *= 2;
    int64_t limit = max_tricks + last;
    int64_t block = 2 * FIRST_BLOCK;
    while (tricks < limit) {
        saved = g;
        status = run(&g, block < limit - tricks ? block : limit - tricks, &saved, &played);
        tricks += played;
        if (status == 0) {
            if (tricks <= max_tricks) {
                out[0] = g.cur;
                out[1] = tricks;
                return 0;
            }
            break;
        }
        if (status == 1) {
            if (played <= max_tricks) {
                int64_t t = transient(a, na, b, nb, leader, played, max_tricks - played);
                if (t >= 0) {
                    out[0] = t;
                    out[1] = played;
                    return 1;
                }
            }
            break;
        }
        block *= 2;
    }
over:
    out[0] = -1;
    out[1] = max_tricks;
    return 2;
}

/* play_match_loops(a, b, leader, max_tricks): returns the status and
 * writes (a, b) of the result to out; -1 if na + nb > MAX_CARDS. */
int bmn_play_loops(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                   int leader, int64_t max_tricks, int64_t *out)
{
    if ((uint64_t)na + nb > MAX_CARDS)
        return -1;
    return play(a, na, b, nb, leader, max_tricks, out);
}

static uint64_t fmix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* SplitMix64.below: uniform in [0, n), n >= 1, by masked rejection; the
 * one draw of both Fisher-Yates shuffles here. */
static uint32_t below(uint64_t *state, uint32_t n)
{
    uint64_t mask = 1, r;
    while (mask < n) /* (1 << (n - 1).bit_length()) - 1 */
        mask *= 2;
    mask -= 1;
    do {
        *state += GOLDEN;
        r = fmix64(*state) & mask;
    } while (r >= n);
    return (uint32_t)r;
}

/* simulate_batch(count, deck, seed, max_tricks, start) into durations and
 * winners; -1 if n > MAX_CARDS. Seed and start arrive reduced mod 2**64. */
int bmn_simulate(const uint8_t *deck, uint32_t n, uint64_t seed, uint64_t start,
                 int64_t count, int64_t max_tricks, int32_t *durations, int8_t *winners)
{
    uint8_t cards[MAX_CARDS];
    int64_t out[2];
    if (n > MAX_CARDS)
        return -1;
    for (int64_t k = 0; k < count; k++) {
        uint64_t state = fmix64(seed ^ fmix64(start + (uint64_t)k + 1));
        memcpy(cards, deck, n);
        for (uint32_t i = n; i-- > 1;) {
            uint32_t r = below(&state, i + 1);
            uint8_t top = cards[i];
            cards[i] = cards[r];
            cards[r] = top;
        }
        int status = play(cards, n / 2, cards + n / 2, n - n / 2, 0, max_tricks, out);
        winners[k] = (int8_t)(status == 0 ? out[0] : -status);
        durations[k] = (int32_t)out[1];
    }
    return 0;
}

/* _parse_pile: 1 if pile[0..np) is a complete natural trick ending
 * at its last card, with the cards the leader and the other player flipped
 * in played[0] and played[1], their counts in n, and whether the leader
 * won in *leader_won; 0 otherwise. */
static int parse_pile(const uint8_t *pile, uint32_t np, uint8_t played[2][MAX_CARDS],
                      uint32_t n[2], int *leader_won)
{
    int cur = 0, challenger = 0, pending = 0;
    n[0] = n[1] = 0;
    for (uint32_t i = 0; i < np; i++) {
        uint8_t card = pile[i];
        played[cur][n[cur]++] = card;
        if (card > 0) {
            challenger = cur;
            pending = card;
            cur = 1 - cur;
        } else if (pending > 0) {
            if (--pending == 0) {
                if (i != np - 1)
                    return 0; /* the trick would have ended before the pile did */
                *leader_won = challenger == 0;
                return 1;
            }
        } else {
            cur = 1 - cur;
        }
    }
    return 0; /* the pile ran out with the trick still open */
}

/* The breadth-first backward search of bmn_search: the states found, packed
 * one after another in states, indexed by an open-addressing table of
 * 1 + their index (0: an empty slot) with linear probing. The arrays grow by
 * doubling; the table keeps at least two slots per state. */
typedef struct {
    uint8_t *states;  /* state i is states[offsets[i] .. offsets[i + 1]) */
    int64_t *offsets, *depths, *table;
    int32_t *plens;   /* the pile of the trick from state i to the one it was found from */
    int64_t n, room, cap, slots, max_nodes;
    int stop_on_balanced;
} search_t;

/* search's result, handed to the caller, who frees it with bmn_free. */
typedef struct {
    uint8_t *states;
    int64_t *offsets, *depths;
    int32_t *plens;
    int64_t n;
} found_t;

#define FIRST_ROOM 256 /* states the search's arrays hold at first */

static uint64_t hash(const uint8_t *p, int64_t n)
{
    uint64_t h = (uint64_t)n, word;
    for (; n >= 8; p += 8, n -= 8) {
        memcpy(&word, p, 8);
        h = fmix64(h ^ word);
    }
    word = 0;
    memcpy(&word, p, (size_t)n);
    return fmix64(h ^ word);
}

static void place(search_t *s, int64_t i, uint64_t h)
{
    uint64_t mask = (uint64_t)s->slots - 1;
    while (s->table[h & mask])
        h++;
    s->table[h & mask] = i + 1;
}

/* Room for twice the states, and a table rebuilt for it; 0 without memory. */
static int grow(search_t *s)
{
    int64_t room = 2 * s->room, *offsets, *depths, *table;
    int32_t *plens;
    if (!(offsets = realloc(s->offsets, (size_t)(room + 1) * sizeof *offsets)))
        return 0;
    s->offsets = offsets;
    if (!(depths = realloc(s->depths, (size_t)room * sizeof *depths)))
        return 0;
    s->depths = depths;
    if (!(plens = realloc(s->plens, (size_t)room * sizeof *plens)))
        return 0;
    s->plens = plens;
    if (!(table = calloc((size_t)(2 * room), sizeof *table)))
        return 0;
    free(s->table);
    s->table = table;
    s->room = room;
    s->slots = 2 * room;
    for (int64_t i = 0; i < s->n; i++)
        place(s, i, hash(s->states + offsets[i], offsets[i + 1] - offsets[i]));
    return 1;
}

/* Where the next state of `size` bytes goes, past the last one found;
 * NULL without memory. */
static uint8_t *tail(search_t *s, int64_t size)
{
    int64_t used = s->offsets[s->n], cap = s->cap;
    while (used + size > cap)
        cap *= 2;
    if (cap != s->cap) {
        uint8_t *states = realloc(s->states, (size_t)cap);
        if (!states)
            return NULL;
        s->states = states;
        s->cap = cap;
    }
    return s->states + used;
}

/* Keep the state written at tail(s, size) unless it was found before:
 * 1 if it is new, 0 if not, -1 without memory. */
static int add(search_t *s, int64_t size, int64_t depth, uint32_t plen)
{
    if (s->n == s->room && !grow(s))
        return -1;
    const uint8_t *p = s->states + s->offsets[s->n];
    uint64_t h = hash(p, size), mask = (uint64_t)s->slots - 1;
    for (int64_t j; (j = s->table[h & mask]); h++) {
        int64_t at = s->offsets[j - 1];
        if (s->offsets[j] - at == size && memcmp(s->states + at, p, (size_t)size) == 0)
            return 0;
    }
    s->table[h & mask] = s->n + 1;
    s->depths[s->n] = depth;
    s->plens[s->n] = (int32_t)plen;
    s->offsets[s->n + 1] = s->offsets[s->n] + size;
    s->n++;
    return 1;
}

/* 1 if the packed state p has decks of the same size. */
static int balanced(const uint8_t *p)
{
    return p[1] == p[3] && p[2] == p[4];
}

/* The predecessors of the packed state t, added to the search at `depth`:
 * 1 once the search is at its node budget or, if asked, found a balanced
 * state; -1 without memory; 0 otherwise. The target's leader won the trick
 * before it. Each bottom slice of the leader's deck that parse_pile reads
 * as a trick is pushed back on top of its players' decks, giving one
 * predecessor, in order of pile length; a target with an empty deck, or
 * whose leader's deck does not end in a closing block (k ordinaries after a
 * rank-k special), has none. */
static int step(search_t *s, const uint8_t *t, int64_t depth)
{
    uint8_t played[2][MAX_CARDS];
    uint32_t np[2];
    int leader_won, winner = t[0];
    uint32_t na = t[1] | t[2] << 8, nb = t[3] | t[4] << 8, size = HEADER + na + nb;
    const uint8_t *w = t + HEADER + (winner ? na : 0), *l = t + HEADER + (winner ? 0 : na);
    uint32_t nw = winner ? nb : na, nl = winner ? na : nb, k = 0;
    while (k < nw && w[nw - 1 - k] == 0)
        k++;
    if (nl == 0 || k == 0 || k == nw || w[nw - 1 - k] != k)
        return 0;
    for (uint32_t plen = 1; plen <= nw; plen++) {
        uint32_t rest = nw - plen;
        /* Every parse is a predecessor, with no trick played to confirm
         * it: the pile is a complete trick ending at its last card. With
         * each player's parsed cards back on top of their deck, the
         * trick flips the same cards in the same order, never from an
         * empty deck, and ends at the same card. The challenger wins and
         * puts the pile under the rest of w, which gives w again. The
         * loser keeps l, not empty (nl > 0), so the trick is not terminal. */
        if (!parse_pile(w + rest, plen, played, np, &leader_won))
            continue;
        const uint8_t *won = played[!leader_won], *lost = played[leader_won];
        uint32_t n_won = np[!leader_won], n_lost = np[leader_won];
        uint8_t *p = tail(s, size);
        if (!p)
            return -1;
        uint32_t n_a = winner ? n_lost + nl : n_won + rest, n_b = na + nb - n_a;
        uint8_t *pw = p + HEADER + (winner ? n_a : 0), *pl = p + HEADER + (winner ? 0 : n_a);
        p[0] = leader_won ? winner : !winner;
        p[1] = n_a & 255;
        p[2] = n_a >> 8;
        p[3] = n_b & 255;
        p[4] = n_b >> 8;
        memcpy(pw, won, n_won);
        memcpy(pw + n_won, w, rest);
        memcpy(pl, lost, n_lost);
        memcpy(pl + n_lost, l, nl);
        int added = add(s, size, depth, plen);
        if (added < 0)
            return -1;
        if (added && (s->n >= s->max_nodes || (s->stop_on_balanced && balanced(p))))
            return 1;
    }
    return 0;
}

/* search(seeds, max_depth, max_nodes, stop_on_balanced) on the n packed
 * states read one after another from seeds, each led by the winner of the
 * trick before it. A packed state is _kernels.pack's: a HEADER of the leader
 * and the lengths of decks A and B (16 bits each, low byte first), then A's
 * cards and then B's. Every distinct seed is found first, at depth 0; each
 * later level holds the predecessors of the level before, in its order and
 * then by pile length, that were not found before. The search stops after
 * max_depth levels, as soon as max_nodes states are found (the seeds are all
 * kept), and with stop_on_balanced as soon as it finds a state whose decks
 * are the same size. Writes the states found to *found, to be freed with
 * bmn_free, and returns 0; returns -1 for a seed past MAX_CARDS and -2
 * without memory, with nothing to free. */
int bmn_search(const uint8_t *seeds, int64_t n, int64_t max_depth, int64_t max_nodes,
               int stop_on_balanced, found_t *found)
{
    uint8_t t[HEADER + MAX_CARDS];
    search_t s = {0};
    int status = 0;
    s.max_nodes = max_nodes;
    s.stop_on_balanced = stop_on_balanced;
    s.room = FIRST_ROOM;
    s.slots = 2 * FIRST_ROOM;
    s.cap = 16 * FIRST_ROOM;
    s.states = malloc((size_t)s.cap);
    s.offsets = calloc(FIRST_ROOM + 1, sizeof *s.offsets);
    s.depths = malloc(FIRST_ROOM * sizeof *s.depths);
    s.plens = malloc(FIRST_ROOM * sizeof *s.plens);
    s.table = calloc(2 * FIRST_ROOM, sizeof *s.table);
    if (!s.states || !s.offsets || !s.depths || !s.plens || !s.table)
        goto fail;
    for (int64_t i = 0; i < n; i++) {
        uint32_t size = HEADER + (seeds[1] | seeds[2] << 8) + (seeds[3] | seeds[4] << 8);
        uint8_t *p;
        if (size > HEADER + MAX_CARDS) {
            status = -1;
            goto fail;
        }
        if (!(p = tail(&s, size)))
            goto fail;
        memcpy(p, seeds, size);
        seeds += size;
        int added = add(&s, size, 0, 0);
        if (added < 0)
            goto fail;
        if (added && stop_on_balanced && balanced(p))
            goto done;
    }
    for (int64_t depth = 1, start = 0, end = s.n;
         start < end && depth <= max_depth && s.n < max_nodes;
         depth++, start = end, end = s.n) {
        for (int64_t i = start; i < end; i++) {
            /* a copy: the states found may move as they grow */
            memcpy(t, s.states + s.offsets[i], (size_t)(s.offsets[i + 1] - s.offsets[i]));
            int stop = step(&s, t, depth);
            if (stop < 0)
                goto fail;
            if (stop)
                goto done;
        }
    }
done:
    free(s.table);
    found->states = s.states;
    found->offsets = s.offsets;
    found->depths = s.depths;
    found->plens = s.plens;
    found->n = s.n;
    return 0;
fail:
    free(s.states);
    free(s.offsets);
    free(s.depths);
    free(s.plens);
    free(s.table);
    return status ? status : -2;
}

/* Frees what bmn_search wrote to *found. */
void bmn_free(found_t *found)
{
    free(found->states);
    free(found->offsets);
    free(found->depths);
    free(found->plens);
}

/* first_insertion(deck, frag, other, into_a, rng, max_positions,
 * max_tricks) with *state as rng.state, in and out: writes (tests,
 * position) to out, position -1 if no insertion loops. Returns -1, the
 * state untouched, if the n + nf + no cards exceed MAX_CARDS. */
int bmn_first_insertion(const uint8_t *deck, uint32_t n, const uint8_t *frag, uint32_t nf,
                        const uint8_t *other, uint32_t no, int into_a, uint64_t *state,
                        int64_t max_positions, int64_t max_tricks, int64_t *out)
{
    uint32_t points[MAX_CARDS + 1];
    uint8_t grown[MAX_CARDS];
    int64_t result[2];
    if ((uint64_t)n + nf + no > MAX_CARDS)
        return -1;
    for (uint32_t i = 0; i <= n; i++)
        points[i] = i;
    for (uint32_t i = n + 1; i-- > 1;) {
        uint32_t r = below(state, i + 1);
        uint32_t top = points[i];
        points[i] = points[r];
        points[r] = top;
    }
    int64_t count = max_positions < n + 1 ? max_positions : n + 1;
    for (int64_t t = 0; t < count; t++) {
        uint32_t pos = points[t];
        memcpy(grown, deck, pos);
        memcpy(grown + pos, frag, nf);
        memcpy(grown + pos + nf, deck + pos, n - pos);
        int status = into_a ? play(grown, n + nf, other, no, 0, max_tricks, result)
                            : play(other, no, grown, n + nf, 0, max_tricks, result);
        if (status == 1) {
            out[0] = t + 1;
            out[1] = pos;
            return 0;
        }
    }
    out[0] = count;
    out[1] = -1;
    return 0;
}
