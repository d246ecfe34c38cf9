//go:build race

package bufpool

// poison is on in race builds: Put fills each returned buffer, so a
// view read after its buffer was recycled reads poisonByte.
const poison = true
