package loops

// TableValues reports the values every Series table holds together.
func TableValues() int64 { return tableValues.Load() }

// MaxTableValues is the cap on TableValues.
const MaxTableValues = maxTableValues
