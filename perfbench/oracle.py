"""Independent reference for the Markov Monoid, used to check answers.

Shares no code with the package under test.  A boolean matrix is a tuple
of row bitmasks (bit t of row s set when s reaches t), and the monoid is
closed with a generator-driven worklist instead of all-pairs rounds, so a
fault in the package's saturation loop cannot hide behind the same fault
here.
"""


def support(rows):
    """Row bitmasks of the positive entries of a square matrix."""
    return tuple(sum(1 << t for t, v in enumerate(row) if v > 0) for row in rows)


def product(left, right):
    out = []
    for mask in left:
        row = 0
        k = 0
        while mask:
            if mask & 1:
                row |= right[k]
            mask >>= 1
            k += 1
        out.append(row)
    return tuple(out)


def stabilize(matrix):
    """Clear the columns of transient targets of an idempotent matrix."""
    recurrent = 0
    for t, row in enumerate(matrix):
        if all(matrix[s] >> t & 1 for s in range(len(matrix)) if row >> s & 1):
            recurrent |= 1 << t
    return tuple(row & recurrent for row in matrix)


def closure(letters):
    """Every element of the Markov monoid generated by `letters`.

    Each element is multiplied on the right by every generator; the
    generators are the letters plus each stabilized idempotent found so far.
    """
    elements = []
    seen = set()
    generators = []

    def add(matrix):
        if matrix not in seen:
            seen.add(matrix)
            elements.append(matrix)

    for letter in letters:
        add(letter)
        if letter not in generators:
            generators.append(letter)
    done = []
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(elements):
            x = elements[i]
            if i == len(done):
                done.append(0)
                if product(x, x) == x:
                    s = stabilize(x)
                    add(s)
                    if s not in generators:
                        generators.append(s)
            while done[i] < len(generators):
                add(product(x, generators[done[i]]))
                done[i] += 1
                changed = True
            i += 1
    return elements


def bitstring(matrix):
    d = len(matrix)
    return "".join("1" if row >> t & 1 else "0" for row in matrix for t in range(d))


def is_value1_witness(matrix, initial, final_mask):
    """Rows of initially-supported states reach only final states."""
    return all(matrix[s] & ~final_mask == 0 for s in initial)


def decide(letters, initial, final_mask):
    """(YES?, monoid size) for the value-1 question."""
    elements = closure(letters)
    return any(is_value1_witness(m, initial, final_mask) for m in elements), len(elements)


def evaluate(expression, letters):
    """Boolean value of a parsed expression tree given as nested tuples:
    ("letter", token), ("product", left, right) or ("omega", child).
    Returns None when omega is applied to a non-idempotent element."""
    kind = expression[0]
    if kind == "letter":
        return letters[expression[1]]
    if kind == "product":
        left = evaluate(expression[1], letters)
        right = evaluate(expression[2], letters)
        if left is None or right is None:
            return None
        return product(left, right)
    child = evaluate(expression[1], letters)
    if child is None or product(child, child) != child:
        return None
    return stabilize(child)
