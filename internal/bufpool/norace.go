//go:build !race

package bufpool

const poison = false
