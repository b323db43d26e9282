# y[n] = sum_t h[t] * x[n-t], 16 taps
	li   $s0, 0x10010000     # h (taps)
	li   $s1, 0x10010100     # x (samples, taps-1 leading zeros)
	li   $s2, 0x10020000     # y (output)
	li   $s3, 4096           # sample count
	li   $t9, 0              # n
sample:
	mtc1 $zero, $f0          # acc
	sll  $t0, $t9, 2
	addu $t0, $s1, $t0       # &x[n] (points at newest of the window)
	move $t1, $s0            # &h[0]
	li   $t2, 16
tap:
	l.s   $f1, 0($t0)
	l.s   $f2, 0($t1)
	mul.s $f3, $f1, $f2
	add.s $f0, $f0, $f3
	addiu $t0, $t0, 4        # older sample (window laid out forward)
	addiu $t1, $t1, 4        # next tap
	addiu $t2, $t2, -1
	bgtz  $t2, tap
	sll  $t3, $t9, 2
	addu $t3, $s2, $t3
	s.s  $f0, 0($t3)         # y[n]
	addiu $t9, $t9, 1
	bne  $t9, $s3, sample
	li $v0, 10
	syscall
