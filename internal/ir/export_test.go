package ir

// Minus returns e - o.
func (e Expr) Minus(o Expr) Expr { return e.Plus(o.Times(-1)) }
