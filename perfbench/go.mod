module caraoke/perfbench

go 1.24

require caraoke v0.0.0

replace caraoke => ../
