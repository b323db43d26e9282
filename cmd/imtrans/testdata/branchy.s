# A data-dependent branch: a 32-bit xorshift generator picks one of two
# paths on every iteration, so the taken branches follow no fixed period.
	li   $t0, 20000          # iterations
	li   $t1, 2463534242     # xorshift state
	li   $t2, 0              # odd-path accumulator
	li   $t3, 0              # even-path accumulator
loop:
	sll  $t4, $t1, 13
	xor  $t1, $t1, $t4
	srl  $t4, $t1, 17
	xor  $t1, $t1, $t4
	sll  $t4, $t1, 5
	xor  $t1, $t1, $t4
	andi $t5, $t1, 1
	beqz $t5, even
	addu $t2, $t2, $t1
	srl  $t6, $t1, 3
	xor  $t2, $t2, $t6
	b    next
even:
	subu $t3, $t3, $t1
	sll  $t6, $t1, 2
	or   $t3, $t3, $t6
next:
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
